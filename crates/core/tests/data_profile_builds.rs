//! The data profile is a one-time cost per database: a whole Table 5
//! domain grid — Spider corpus build, domain build, the generation
//! pipeline, and four training regimes × three systems that link every
//! training and dev question — profiles each database it touches exactly
//! once. Its own test binary, because `sb-obs` counters are process-wide.

use sb_core::experiments::{run_domain_grid, ExperimentConfig};
use sb_core::{SpiderPairs, SpiderSetConfig};
use sb_data::{Domain, SizeClass};

#[test]
fn domain_grid_profiles_each_database_once() {
    let cfg = ExperimentConfig {
        size: SizeClass::Tiny,
        scale: 0.12,
        spider: SpiderSetConfig {
            train_total: 120,
            dev_total: 40,
            databases: 3,
            seed: 5,
        },
        seed: 5,
    };
    sb_obs::set_mode(sb_obs::Mode::Summary);
    sb_obs::reset();
    let spider = SpiderPairs::build(&cfg.spider);
    let results = run_domain_grid(&cfg, &spider, &[Domain::Sdss]);
    let builds = sb_obs::snapshot().counter("engine.data_profile.builds");
    sb_obs::set_mode(sb_obs::Mode::Off);

    assert_eq!(results.len(), 12, "4 regimes × 3 systems");
    // Three Spider corpus databases plus the SDSS database.
    assert_eq!(spider.corpus.databases.len(), 3);
    assert_eq!(builds, 4);
}
