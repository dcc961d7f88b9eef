//! The traced benchmark: per-layer spans recorded from the
//! benchmark's own code, around the public entry points each layer
//! offers (see `schemes` and `setup`).
//!
//! This is scaffolding until the program records its own spans; the
//! end-to-end numbers never come from here.

pub mod schemes;
pub mod setup;
pub mod spans;
pub mod summary;

use bench_workloads::{drain, SessionRun};
use gsfl_core::context::TrainContext;
use gsfl_core::runner::{RoundEvent, Session};
use gsfl_core::scheme::SchemeKind;
use gsfl_core::stop::NeverStop;
use std::time::Instant;

/// Runs one traced session of `kind` over `ctx`; returns it with the
/// spans it recorded. Each round gets a `round` span from `RoundStarted`
/// to `RoundFinished`.
pub fn traced_session(ctx: &TrainContext, kind: SchemeKind) -> (SessionRun, Vec<spans::Span>) {
    let t = Instant::now();
    let scheme = schemes::traced(kind).expect("every workload's scheme has a traced twin");
    let session = match Session::with_scheme(ctx, scheme, Box::new(NeverStop)) {
        Ok(session) => session,
        Err(e) => {
            let run = SessionRun::failed_to_start(kind, t, e.to_string());
            return (run, spans::take());
        }
    };
    let mut round_span: Option<usize> = None;
    let run = drain(session, t, |event| match event {
        RoundEvent::RoundStarted { round } => {
            spans::set_context(*round as u32, 0);
            round_span = Some(spans::begin("round"));
        }
        event => {
            // The first event after a round executed closes the
            // `nn.eval` span the scheme opened, if it evaluated.
            if let (Some(round), Some(open)) = (round_span, spans::innermost()) {
                if open != round {
                    spans::end(open);
                }
            }
            if let RoundEvent::RoundFinished { .. } = event {
                if let Some(round) = round_span.take() {
                    spans::end(round);
                }
                spans::set_context(0, 0);
            }
        }
    });
    (run, spans::take())
}
