//! Print the Blast pipeline configuration — `BlockingConfig::blast()`
//! with the default matcher and clustering — in the format `sparker
//! --config` reads (`PipelineConfig::to_config_string`). `ci.sh` writes it
//! to a file for its clean–clean Blast backend gate:
//!
//! ```sh
//! cargo run -q --release -p sparker-bench --bin blast_config > blast.conf
//! ```

use sparker_core::{BlockingConfig, PipelineConfig};

fn main() {
    let config = PipelineConfig {
        blocking: BlockingConfig::blast(),
        ..PipelineConfig::default()
    };
    print!("{}", config.to_config_string());
}
