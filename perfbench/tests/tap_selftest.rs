//! The tap observes without changing behaviour: its frame totals equal the
//! simulator's own counters, and a traced run ends in the same replicated
//! state as an untraced one with the same seed.

use std::time::Duration;

use perfbench::kv::{KvCluster, Net};
use samoa_proto::KvApplied;

const OPS: usize = 150;
const PUT_SEQ_NET: Net = Net::Sim {
    loss: 0.0,
    dup: 0.0,
};

/// Sequential puts from site 0, keys drawn from `seed`; returns every
/// site's log and digest once the cluster is quiet.
fn put_seq(seed: u64, traced: bool) -> (KvCluster, Vec<(Vec<KvApplied>, u64)>) {
    let cluster = KvCluster::build(PUT_SEQ_NET, seed, traced);
    let mut x = seed;
    for op in 0..OPS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = format!("key-{}", (x >> 33) % 32);
        let reply = cluster
            .node(0)
            .kv_put(key, format!("o{op}"))
            .wait(Duration::from_secs(10));
        assert!(reply.is_some(), "put {op} timed out");
    }
    cluster.settle();
    let state = (0..3)
        .map(|i| (cluster.node(i).kv_log(), cluster.node(i).kv_digest()))
        .collect();
    (cluster, state)
}

#[test]
fn tap_totals_equal_the_simulators_counters() {
    let (cluster, state) = put_seq(7, true);
    let rec = cluster.recorder().expect("traced cluster has a recorder");
    let (sent, delivered) = rec.totals();
    let net = cluster.net_totals();
    assert_eq!(sent, net.sent, "frames sent");
    assert_eq!(delivered, net.delivered, "frames delivered");
    assert!(sent > 0);
    assert!(state.iter().all(|(log, _)| log.len() == OPS));
    cluster.shutdown();
}

#[test]
fn traced_and_untraced_runs_end_identically() {
    let (plain, a) = put_seq(11, false);
    let (traced, b) = put_seq(11, true);
    assert_eq!(a, b, "kv logs and digests differ with the tap installed");
    assert!(a.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
    plain.shutdown();
    traced.shutdown();
}
