//! Property tests for registry crash recovery (satellite 3): truncate or
//! bit-flip the manifest or an artifact at an *arbitrary* byte offset and
//! reopen — startup must always land on the last durable intact version,
//! with the damage quarantined, never serve damaged bytes, and never
//! panic.
//!
//! Each case builds the pristine registry (v1 promoted, then v2 promoted
//! over it, so there is a live version, a draining predecessor, and a
//! manifest backup) in its own scratch directory, applies one
//! deterministic injury, and runs full recovery; the directory goes with
//! the case.

use cpt_serve::registry::{canary_fingerprint, Registry, VersionState, MANIFEST};
use cpt_testkit::{fixture_model, Scratch};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Builds the pristine two-version registry every case starts from in
/// `dir`: v1 staged, validated, promoted; then v2 staged, validated,
/// promoted over it. The last durable commit therefore has v2 live and v1
/// draining, and `manifest.prev.json` holds the state one commit earlier.
fn build_template(dir: &Path) {
    let (mut reg, report) = Registry::open(dir).expect("template registry opens");
    assert!(report.is_clean());
    let model = fixture_model();
    for note in ["template v1", "template v2"] {
        let id = reg.stage(&model, note).expect("stage");
        reg.validate(id).expect("validate");
        reg.promote(id).expect("promote");
    }
    assert_eq!(reg.live(), Some(2));
}

/// Which file the injury lands on.
#[derive(Debug, Clone, Copy)]
enum Target {
    Manifest,
    LiveArtifact,
    PrevArtifact,
}

impl Target {
    fn path(self, root: &Path) -> PathBuf {
        match self {
            Target::Manifest => root.join(MANIFEST),
            Target::LiveArtifact => root.join("versions/v0002/model.cmb"),
            Target::PrevArtifact => root.join("versions/v0001/model.cmb"),
        }
    }
}

/// Damage one file at a deterministic byte offset: truncate everything
/// from the offset on, or flip one bit there.
fn injure(path: &Path, truncate: bool, offset_frac: f64) {
    let mut bytes = std::fs::read(path).expect("read injury target");
    assert!(!bytes.is_empty(), "injury target is empty");
    let offset = ((bytes.len() as f64 * offset_frac) as usize).min(bytes.len() - 1);
    if truncate {
        bytes.truncate(offset);
    } else {
        bytes[offset] ^= 0x01;
    }
    std::fs::write(path, &bytes).expect("write injured file");
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        Just(Target::Manifest),
        Just(Target::LiveArtifact),
        Just(Target::PrevArtifact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever single injury lands wherever it lands, recovery succeeds,
    /// a live version exists, its artifact loads and passes the canary,
    /// and a damaged artifact is never the one served.
    #[test]
    fn recovery_always_lands_on_a_durable_intact_version(
        target in arb_target(),
        truncate in prop_oneof![Just(true), Just(false)],
        offset_frac in 0.0f64..1.0,
    ) {
        let case = Scratch::new("tornwrite-case");
        build_template(case.dir());
        injure(&target.path(case.dir()), truncate, offset_frac);

        let (mut reg, report) =
            Registry::open(case.dir()).expect("recovery must succeed after any single injury");

        let live = reg.live().expect("a durable version must survive");
        prop_assert!(live == 1 || live == 2, "live fell outside the known versions: {live}");
        let rec = reg.manifest().record(live).expect("live record exists");
        prop_assert_eq!(rec.state, VersionState::Live);

        let (loaded_id, model) = reg
            .load_live()
            .expect("the recovered live artifact must load cleanly");
        prop_assert_eq!(loaded_id, live);
        prop_assert!(
            canary_fingerprint(&model).is_ok(),
            "the recovered live model must pass the canary"
        );

        match target {
            // Damaging the live artifact must demote it: v2 is
            // quarantined and the registry falls back to v1.
            Target::LiveArtifact => {
                prop_assert_eq!(live, 1, "damaged live version still serving");
                prop_assert!(
                    report.quarantined.iter().any(|(id, _)| *id == 2),
                    "damaged v2 not quarantined: {:?}",
                    report.quarantined
                );
            }
            // Damaging the draining predecessor must not disturb the
            // live version.
            Target::PrevArtifact => {
                prop_assert_eq!(live, 2, "intact live version was demoted");
                prop_assert!(
                    report.quarantined.iter().any(|(id, _)| *id == 1),
                    "damaged v1 not quarantined: {:?}",
                    report.quarantined
                );
            }
            // A damaged manifest recovers from the current file (if the
            // injury left it parseable and consistent) or the previous
            // commit's backup — either way onto an intact version, which
            // the generic assertions above already proved.
            Target::Manifest => {}
        }
    }
}
