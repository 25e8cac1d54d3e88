//! The traced run does the same work as the untraced one: wrapping the
//! simulated fabric in `TimedTransport` changes timing only.

#![allow(clippy::disallowed_methods)]

use obiwan_benchmark::drive::{drive, Limit};
use obiwan_benchmark::{PageStream, Tracer, Workload, World};
use std::sync::Arc;

#[test]
fn timed_transport_leaves_swap_decisions_and_the_lifecycle_trace_unchanged() {
    let spec = Workload::PressureXml.spec_with_nodes(2_000);
    let run = |tracer: Option<Arc<Tracer>>| {
        let mut world = World::build(&spec, tracer.clone()).unwrap();
        let window = drive(
            &mut world,
            PageStream::new(11, &spec),
            Limit::Ops(500),
            tracer.as_ref(),
        )
        .unwrap();
        // Both runs draw the same pages, so with no page off its expected
        // step count the per-page step counts are identical.
        assert_eq!((window.pages, window.failed), (500, 0));
        assert_eq!(window.wrong_steps, 0);
        (world.mw.swap_stats(), world.mw.trace_json())
    };
    let tracer = Tracer::new();
    let (plain_stats, plain_trace) = run(None);
    let (timed_stats, timed_trace) = run(Some(Arc::clone(&tracer)));

    assert!(plain_stats.swap_outs > 0 && plain_stats.swap_ins > 0);
    assert!(
        tracer.spans().iter().any(|s| s.name == "net.fetch"),
        "the wrapper saw the reload traffic"
    );
    assert_eq!(plain_stats, timed_stats);
    assert_eq!(plain_trace, timed_trace);
}
