//! An online chain that is keeping up must not take a core from the DBMS
//! it sits beside. Its own test binary: the measure is the process's CPU
//! time, which tests running alongside would add to.

#![cfg(target_os = "linux")]

use leopard::{IsolationLevel, VerifierConfig};
use leopard_core::OnlineLeopard;
use std::time::Duration;

/// User plus system time of this process, in clock ticks (`USER_HZ`, 100
/// to the second): fields 14 and 15 of `/proc/self/stat`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The second field, the command name, may hold spaces: count from
    // the parenthesis that closes it, where field 3 starts.
    let (_, rest) = stat.rsplit_once(')').expect("stat names the command");
    let mut ticks = rest
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<u64>().expect("a tick count"));
    ticks.next().expect("utime") + ticks.next().expect("stime")
}

#[test]
fn four_connected_silent_clients_cost_at_most_a_tenth_of_a_core() {
    let (leopard, handles) = OnlineLeopard::start(
        4,
        VerifierConfig::for_level(IsolationLevel::Serializable),
        Vec::new(),
    );
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_secs(2));
    let spent = cpu_ticks() - before;
    drop(handles);
    let outcome = leopard.finish();
    assert_eq!(outcome.counters.traces, 0);
    assert!(
        spent <= 20,
        "an idle chain used {spent} of the 200 clock ticks in 2 s"
    );
}
