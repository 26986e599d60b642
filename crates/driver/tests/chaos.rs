//! Chaos suite: deterministic fault injection across the driver's three
//! fault-tolerance mechanisms — panic isolation, cooperative deadlines,
//! and crash-safe knowledge persistence — plus the budget-exhaustion
//! degradation ladder.
//!
//! Every fault is armed through `smartly_failpoint`, so each test is a
//! seeded, reproducible experiment: the same spec on the same workload
//! fires the same fault every run. The contract pinned here:
//!
//! * a fault costs at most the module it hit — non-faulted modules
//!   produce byte-identical netlists and reports;
//! * a faulted module degrades to its original netlist
//!   (`cells_after == cells_before`), never a half-optimized one;
//! * with every fail point disarmed, digests are byte-identical to a
//!   fault-free run (the fault layer is invisible when dormant).

use smartly_core::SharedCexBank;
use smartly_driver::persist::{load_state, save_state, KnowledgeState, StoreKey, SAVE_ATTEMPTS};
use smartly_driver::{
    emit_design, optimize_design, DriverOptions, ModuleOutcome, FP_MODULE_DEADLINE,
    FP_MODULE_PANIC, FP_SAVE_BACKOFF, FP_SAVE_IO, FP_SAVE_RELOAD, FP_SAVE_RENAME,
};
use smartly_failpoint as fail;
use smartly_netlist::Design;
use smartly_verilog::emit_verilog;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The fail-point registry is process-global; chaos tests serialize on
/// this lock and start from a disarmed registry.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn armed_guard() -> MutexGuard<'static, ()> {
    let g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fail::disarm_all();
    g
}

/// Restores the zero-cost path even when a test panics mid-arming.
struct DisarmOnDrop;
impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        fail::disarm_all();
    }
}

const MULTI: &str = r#"
module fig3_cone (input wire s, input wire r, input wire [7:0] a,
                  input wire [7:0] b, input wire [7:0] c, output reg [7:0] y);
  always @(*) begin
    if (s) begin
      if (s | r) y = a; else y = b;
    end else y = c;
  end
endmodule

module case_chain (input wire [1:0] sel, input wire [7:0] p0,
                   input wire [7:0] p1, input wire [7:0] p2,
                   input wire [7:0] p3, output reg [7:0] q);
  always @(*) begin
    case (sel)
      2'b00: q = p0;
      2'b01: q = p1;
      2'b10: q = p2;
      default: q = p3;
    endcase
  end
endmodule

module datapath (input wire [7:0] a, input wire [7:0] b,
                 output wire [7:0] s, output wire lt);
  assign s = a + b;
  assign lt = a < b;
endmodule
"#;

fn compile(src: &str) -> Design {
    smartly_verilog::compile(src).expect("source compiles")
}

fn run(design: &mut Design, opts: &DriverOptions) -> smartly_driver::DesignReport {
    optimize_design(design, opts).expect("driver run succeeds")
}

/// An injected panic poisons exactly the targeted module: its original
/// netlist survives, every other module matches the fault-free run
/// byte-for-byte, and a disarmed rerun restores full digest identity.
#[test]
fn panic_failpoint_poisons_only_the_target_module() {
    let _g = armed_guard();
    let _d = DisarmOnDrop;
    let opts = DriverOptions {
        jobs: 1,
        ..Default::default()
    };

    // fault-free reference
    let mut clean = compile(MULTI);
    let clean_original = compile(MULTI);
    let clean_report = run(&mut clean, &opts);

    // armed run: panic inside case_chain only
    fail::arm(FP_MODULE_PANIC, "always@case_chain").expect("arm");
    let mut faulted = compile(MULTI);
    let report = run(&mut faulted, &opts);
    fail::disarm_all();

    assert_eq!(report.poisoned(), 1, "exactly one module poisoned");
    for (i, m) in report.modules.iter().enumerate() {
        if m.name == "case_chain" {
            let ModuleOutcome::Poisoned { message, backtrace } = &m.outcome else {
                panic!("case_chain should be poisoned, got {:?}", m.outcome);
            };
            assert!(
                message.contains("injected panic in module 'case_chain'"),
                "panic message preserved: {message}"
            );
            assert!(!backtrace.is_empty(), "backtrace captured at panic site");
            assert_eq!(m.cells_after, m.cells_before, "degrades to the original");
            assert!(m.report.is_none());
            // the netlist itself was restored, not half-rewritten
            assert_eq!(
                emit_verilog(&faulted.modules()[i]),
                emit_verilog(&clean_original.modules()[i]),
                "poisoned module must carry its pristine netlist"
            );
        } else {
            // blast radius zero: byte-identical to the fault-free run
            let clean_m = &clean_report.modules[i];
            assert_eq!(m.outcome, clean_m.outcome, "{}", m.name);
            assert_eq!(m.cells_after, clean_m.cells_after, "{}", m.name);
            assert_eq!(
                emit_verilog(&faulted.modules()[i]),
                emit_verilog(&clean.modules()[i]),
                "{} must be untouched by the fault next door",
                m.name
            );
        }
    }
    // the counter is timing-side only: present in the full JSON, absent
    // from the digest schema
    let timing = report.to_json();
    assert!(timing.get("modules_poisoned").is_some());

    // disarmed rerun: the fault layer is invisible when dormant
    let mut again = compile(MULTI);
    let again_report = run(&mut again, &opts);
    assert_eq!(again_report.digest(), clean_report.digest());
    assert_eq!(emit_design(&again), emit_design(&clean));
}

/// A forced deadline interrupts the CDCL search mid-flight and the
/// module degrades to `TimedOut` with its original netlist — the
/// cooperative path a wall-clock `--timeout-ms` takes, made
/// deterministic by counting polls instead of nanoseconds.
#[test]
fn forced_deadline_reverts_module_as_timed_out() {
    let _g = armed_guard();
    let _d = DisarmOnDrop;
    let opts = DriverOptions {
        jobs: 1,
        level: smartly_core::OptLevel::SatOnly,
        ..Default::default()
    };

    // reference: the stress module shrinks when search completes
    let mut clean = Design::from_modules(smartly_workloads::solver_stress(3, 9));
    let clean_report = run(&mut clean, &opts);
    assert!(
        clean_report.modules[0].cells_after < clean_report.modules[0].cells_before,
        "fault-free run must do real SAT work for this test to mean anything"
    );

    fail::arm(FP_MODULE_DEADLINE, "always@solver_stress").expect("arm");
    let mut faulted = Design::from_modules(smartly_workloads::solver_stress(3, 9));
    let original = Design::from_modules(smartly_workloads::solver_stress(3, 9));
    let report = run(&mut faulted, &opts);
    fail::disarm_all();

    let m = &report.modules[0];
    assert_eq!(
        m.outcome,
        ModuleOutcome::TimedOut {
            budget: Duration::ZERO
        },
        "forced deadline surfaces as the timeout ladder"
    );
    assert_eq!(m.cells_after, m.cells_before);
    assert_eq!(
        emit_verilog(&faulted.modules()[0]),
        emit_verilog(&original.modules()[0]),
        "interrupted module reverts to its pristine netlist"
    );

    // disarmed rerun: digest-identical to the fault-free reference
    let mut again = Design::from_modules(smartly_workloads::solver_stress(3, 9));
    let again_report = run(&mut again, &opts);
    assert_eq!(again_report.digest(), clean_report.digest());
}

/// A ladder of deadline trips across the whole run reverts digest-safe.
/// The trip points are derived from a counted run's own solver polls, so
/// they spread from the first search poll to the last one whatever the
/// solver's conflict count. Wherever a trip lands, the contract is the
/// same: the module degrades to `TimedOut` with its pristine netlist — a
/// half-searched query must never leak into a kept result.
#[test]
fn deadline_trip_ladder_reverts_digest_safe() {
    let _g = armed_guard();
    let _d = DisarmOnDrop;
    let mk = || Design::from_modules(smartly_workloads::solver_stress(4, 10));
    let base = || DriverOptions {
        jobs: 1,
        level: smartly_core::OptLevel::SatOnly,
        ..Default::default()
    };

    let mut clean = mk();
    let clean_report = run(&mut clean, &base());

    // an armed deadline that never expires is invisible: same digest,
    // and the solver's poll counter sizes the trip ladder below
    let counting = DriverOptions {
        external_deadline: Some(smartly_core::Deadline::after_checks(u64::MAX / 2)),
        ..base()
    };
    let mut counted = mk();
    let counted_report = run(&mut counted, &counting);
    assert_eq!(counted_report.digest(), clean_report.digest());
    let totals = counted_report.sat_totals();
    let polls = totals.solver_deadline_checks;
    assert!(
        polls >= 8,
        "stress workload must poll the deadline throughout a long search: {}",
        totals.solver_summary()
    );

    // sweep the trip point across the poll sequence
    let original = mk();
    for checks in [1, polls / 4, polls / 2, 3 * polls / 4, polls - 1] {
        let opts = DriverOptions {
            external_deadline: Some(smartly_core::Deadline::after_checks(checks)),
            ..base()
        };
        let mut faulted = mk();
        let report = run(&mut faulted, &opts);
        let m = &report.modules[0];
        assert_eq!(
            m.outcome,
            ModuleOutcome::TimedOut {
                budget: Duration::ZERO
            },
            "trip at poll {checks} must surface as the timeout ladder"
        );
        assert_eq!(m.cells_after, m.cells_before, "trip at poll {checks}");
        assert_eq!(
            emit_verilog(&faulted.modules()[0]),
            emit_verilog(&original.modules()[0]),
            "trip at poll {checks} must revert to the pristine netlist"
        );
    }

    // disarmed rerun: digest-identical to the fault-free reference
    let mut again = mk();
    assert_eq!(run(&mut again, &base()).digest(), clean_report.digest());
}

/// The crash-safe save path: a hard IO fault fails the save but leaves
/// no temp litter and no damaged store; a transient fault is absorbed by
/// the retry ladder; the reload-after-save verification passes on a real
/// store.
#[test]
fn persist_failpoints_exercise_the_save_ladder() {
    let _g = armed_guard();
    let _d = DisarmOnDrop;
    let dir = std::env::temp_dir().join(format!("smartly_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("store.kb");
    let key = StoreKey::current(DriverOptions::default().pipeline.sat.conflict_budget);
    // the ladder below absorbs transient faults; skip its real
    // exponential sleeps so the suite exercises retries in microseconds
    fail::arm(FP_SAVE_BACKOFF, "always").expect("arm");

    // populate a state with real knowledge
    let state = std::sync::Arc::new(load_state(&path, &key, 8_192));
    let mut design = Design::from_modules(smartly_workloads::knowledge_probes(4, 3, 12));
    let opts = DriverOptions {
        jobs: 1,
        knowledge_state: Some(state.clone()),
        ..Default::default()
    };
    run(&mut design, &opts);

    // hard fault: every attempt fails, the error propagates, and neither
    // a temp file nor a damaged store is left behind
    fail::arm(FP_SAVE_IO, "always").expect("arm");
    let err = save_state(&path, &state, &key, 4_096).expect_err("injected IO error");
    assert!(err.to_string().contains("injected save IO error"));
    assert_eq!(
        fail::hit_count(FP_SAVE_IO),
        u64::from(SAVE_ATTEMPTS),
        "every retry re-attempts the write"
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir).expect("readdir").collect();
    assert!(
        leftovers.is_empty(),
        "no temp litter or partial store after a failed save: {leftovers:?}"
    );

    // transient fault: first attempt fails, the retry ladder absorbs it
    fail::arm(FP_SAVE_IO, "hit:1").expect("arm");
    let report = save_state(&path, &state, &key, 4_096).expect("retry succeeds");
    assert_eq!(report.retries, 1, "one absorbed failure");
    assert!(report.entries_written() > 0);
    assert!(path.exists());
    fail::disarm_all();

    // a transient rename fault is absorbed the same way
    fail::arm(FP_SAVE_RENAME, "hit:1").expect("arm");
    let report = save_state(&path, &state, &key, 4_096).expect("retry succeeds");
    assert_eq!(report.retries, 1);
    fail::disarm_all();

    // reload-after-save verification: the published file must decode
    // against the same key
    fail::arm(FP_SAVE_RELOAD, "always").expect("arm");
    save_state(&path, &state, &key, 4_096).expect("reload verification passes");
    fail::disarm_all();

    // the store is genuinely loadable after all that
    let reloaded = load_state(&path, &key, 8_192);
    assert!(!reloaded.load.load_failed && !reloaded.load.stale_rejected);
    assert!(reloaded.load.loaded_shapes + reloaded.load.loaded_verdicts > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retry backoff is injectable: with `persist.save.backoff` armed,
/// walking the whole 3-attempt ladder schedules its backoffs (the site
/// counts them) but sleeps for none of them, so chaos tests exercising
/// exhausted ladders spend no real wall-clock waiting.
#[test]
fn save_backoff_is_injectable_through_the_failpoint() {
    let _g = armed_guard();
    let _d = DisarmOnDrop;
    let path = std::env::temp_dir().join(format!("smartly_backoff_{}.kb", std::process::id()));
    let key = StoreKey::current(DriverOptions::default().pipeline.sat.conflict_budget);
    let state = KnowledgeState::cold(16);
    state.bank.publish(0xF00D, &[true, false]);

    fail::arm(FP_SAVE_IO, "always").expect("arm");
    fail::arm(FP_SAVE_BACKOFF, "always").expect("arm");
    save_state(&path, &state, &key, 64).expect_err("every attempt faulted");
    // the ladder scheduled exactly SAVE_ATTEMPTS - 1 backoffs...
    assert_eq!(
        fail::hit_count(FP_SAVE_BACKOFF),
        u64::from(SAVE_ATTEMPTS) - 1,
        "one backoff per absorbed failure"
    );
    // ...and the armed site swallowed every one of them (the sleep
    // branch was skipped each time)
    assert_eq!(
        fail::fired_count(FP_SAVE_BACKOFF),
        u64::from(SAVE_ATTEMPTS) - 1,
        "no injected backoff may fall through to a real sleep"
    );
    fail::disarm_all();

    // disarmed, the same ladder still works end to end (and the retry
    // count reporting is unchanged by the injection seam)
    fail::arm(FP_SAVE_IO, "hit:1").expect("arm");
    fail::arm(FP_SAVE_BACKOFF, "always").expect("arm");
    let report = save_state(&path, &state, &key, 64).expect("transient fault absorbed");
    assert_eq!(report.retries, 1);
    let _ = std::fs::remove_file(&path);
}

/// The budget-exhaustion ladder (no fail points involved): a conflict
/// budget too small for any query leaves every module byte-identical to
/// its input, publishes no verdicts, and — because exhaustion is memoed
/// but never concluded — a later full-budget run is digest-identical to
/// a fresh one.
#[test]
fn budget_exhaustion_degrades_without_publishing() {
    let _g = armed_guard();
    let _d = DisarmOnDrop;
    let starved = |jobs: usize| {
        let mut opts = DriverOptions {
            jobs,
            level: smartly_core::OptLevel::SatOnly,
            ..Default::default()
        };
        opts.pipeline.sat.conflict_budget = 1;
        let mut design = Design::from_modules(smartly_workloads::solver_stress(3, 9));
        run(&mut design, &opts)
    };
    let report = starved(1);
    assert_eq!(
        report.modules[0].cells_after, report.modules[0].cells_before,
        "a starved budget must not rewrite anything"
    );
    let totals = report.sat_totals();
    assert!(totals.queries > 0, "queries were actually attempted");
    assert_eq!(
        totals.verdicts_published, 0,
        "budget-limited verdicts must never publish"
    );
    // degradation itself is deterministic across worker counts
    assert_eq!(report.digest(), starved(4).digest());

    // and leaves no state that bends a later full-budget run
    let full = |_| {
        let opts = DriverOptions {
            jobs: 1,
            level: smartly_core::OptLevel::SatOnly,
            ..Default::default()
        };
        let mut design = Design::from_modules(smartly_workloads::solver_stress(3, 9));
        run(&mut design, &opts)
    };
    let a = full(0);
    let b = full(1);
    assert_eq!(a.digest(), b.digest());
    assert!(
        a.modules[0].cells_after < a.modules[0].cells_before,
        "full budget optimizes"
    );
}
