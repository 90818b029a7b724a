//! In-memory spans of a traced run: one step span per slot, with the
//! seven phase spans of `greenmatch::phases` as its children.

use greenmatch::{Phase, SlotObserver};
use std::sync::{Arc, Mutex};

/// The phases in pipeline order, with their metric names.
pub const PHASES: [(Phase, &str); 7] = [
    (Phase::Forecast, "forecast"),
    (Phase::Classify, "classify"),
    (Phase::Admission, "admission"),
    (Phase::Plan, "plan"),
    (Phase::Gear, "gear"),
    (Phase::Execute, "execute"),
    (Phase::Settle, "settle"),
];

/// Index of Execute in [`PHASES`].
pub const EXECUTE: usize = 5;

fn phase_index(phase: Phase) -> usize {
    PHASES.iter().position(|(p, _)| *p == phase).expect("every phase is listed")
}

/// Spans of one run, indexed by slot. Nanoseconds.
#[derive(Default, Debug, Clone)]
pub struct Spans {
    pub steps: Vec<u64>,
    pub phases: Vec<[u64; 7]>,
}

impl Spans {
    fn grow(&mut self, slot: usize) {
        if self.steps.len() <= slot {
            self.steps.resize(slot + 1, 0);
            self.phases.resize(slot + 1, [0; 7]);
        }
    }

    /// Total of one phase (an index into [`PHASES`]) over every slot.
    pub fn phase_total(&self, phase: usize) -> u64 {
        self.phases.iter().map(|p| p[phase]).sum()
    }
}

/// Shared handle to one run's spans: the observer writes phase spans, the
/// stepping loop writes step spans.
#[derive(Clone, Default)]
pub struct SpanLog(Arc<Mutex<Spans>>);

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    pub fn step(&self, slot: usize, nanos: u64) {
        let mut s = self.0.lock().expect("span log");
        s.grow(slot);
        s.steps[slot] = nanos;
    }

    fn phase(&self, slot: usize, phase: Phase, nanos: u64) {
        let mut s = self.0.lock().expect("span log");
        s.grow(slot);
        s.phases[slot][phase_index(phase)] += nanos;
    }

    pub fn spans(&self) -> Spans {
        self.0.lock().expect("span log").clone()
    }
}

/// The benchmark's phase observer: asks the simulation for phase timing
/// and files each phase span under its slot.
pub struct PhaseObserver {
    log: SpanLog,
}

impl PhaseObserver {
    pub fn new(log: SpanLog) -> PhaseObserver {
        PhaseObserver { log }
    }
}

impl SlotObserver for PhaseObserver {
    fn wants_phases(&self) -> bool {
        true
    }

    fn on_phase(&mut self, slot: usize, phase: Phase, nanos: u64) {
        self.log.phase(slot, phase, nanos);
    }
}
