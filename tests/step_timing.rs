//! Every native session records step timing.
//!
//! The driver installs the `asgd_hogwild_step_ns` sink for all four native
//! backends, and each backend's workers must feed it. The histogram is
//! process-wide, so this binary holds a single test: no other run records
//! into it while a backend is measured, and growth can only come from that
//! backend.

use asyncsgd::prelude::*;

#[test]
fn every_native_backend_records_step_timing() {
    let hist = asyncsgd::telemetry::global().histogram("asgd_hogwild_step_ns");
    for backend in [
        BackendKind::Hogwild,
        BackendKind::Locked,
        BackendKind::GuardedEpoch,
        BackendKind::NativeFullSgd,
    ] {
        let spec = RunSpec::new(OracleSpec::new("sparse-quadratic", 64), backend)
            .threads(2)
            .iterations(4_000)
            .learning_rate(0.001)
            .x0(vec![1.0; 64])
            .seed(3);
        let before = hist.count();
        let report = run_spec(&spec).expect("valid spec");
        assert_eq!(report.iterations, 4_000, "{backend}");
        assert!(
            hist.count() > before,
            "{backend}: the step-timing histogram did not grow"
        );
    }
}
