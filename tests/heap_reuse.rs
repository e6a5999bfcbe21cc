//! A served database reuses the memory its statements free: once warm,
//! a big-result statement takes almost no minor page faults, because
//! `Server::bind` sets the allocator to keep freed memory in the process
//! (`snapshot_server::keep_freed_memory`). With glibc's defaults every
//! `join-1` on 2 000 employees faults its freed pages back in.
//!
//! The fault count is the whole process's, so this file holds a single
//! test and is a test binary of its own: no other test runs beside it.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use snapshot_obs::MetricsRegistry;
use snapshot_semantics::datagen::employees;
use snapshot_semantics::server::{Client, Server, ServerConfig};
use snapshot_semantics::session::{Database, SharedDatabase};

/// Minor page faults of this process so far, as `.metrics` reports them.
fn minor_faults(metrics: &MetricsRegistry) -> u64 {
    metrics.refresh_process_metrics();
    metrics.counter("snapshot_minor_faults_total").get()
}

#[test]
fn a_warm_big_result_takes_almost_no_page_faults() {
    let catalog = employees::generate(2_000.0 / 300_000.0, 7);
    let shared = SharedDatabase::new(Database::from_catalog(catalog));
    let obs = std::sync::Arc::clone(shared.obs());
    let server = Server::bind(shared, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let join_1 = employees::queries()
        .into_iter()
        .find(|(name, _)| *name == "join-1")
        .map(|(_, sql)| sql)
        .expect("datagen::employees has join-1");
    let mut client = Client::connect(addr).expect("connect");
    let run = |client: &mut Client| {
        let resp = client.query(join_1).expect("join-1 round trip");
        assert!(resp.error.is_none(), "join-1 failed: {:?}", resp.error);
    };
    for _ in 0..5 {
        run(&mut client);
    }
    let before = minor_faults(&obs.metrics);
    for _ in 0..5 {
        run(&mut client);
    }
    let faults = minor_faults(&obs.metrics) - before;

    client.close().expect("close");
    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
    assert!(
        faults < 100,
        "five warm join-1 statements took {faults} minor page faults"
    );
}
