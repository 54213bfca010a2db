//! Loom models for the workspace's one concurrent protocol: the
//! `lit-obs` hub pool.
//!
//! The production hub (`lit_obs::hub`) pools per-worker `ObsShard`s into
//! one `Mutex<ObsShard>` and claims the pooled result is independent of
//! worker completion order because `ObsShard::merge` is commutative and
//! associative. The models here re-create that submit path under loom's
//! exhaustive scheduler with the *real* `ObsShard`/`merge` code, so every
//! interleaving of worker threads is checked, not just the ones a lucky
//! test run happens to hit.
//!
//! Run with `cd ci/loom && cargo test` (CI-only; needs the network to
//! fetch loom — the offline dev workspace deliberately excludes this
//! crate).

#![forbid(unsafe_code)]

#[cfg(test)]
mod models {
    use lit_obs::metrics::ObsShard;
    use loom::sync::{Arc, Mutex};
    use loom::thread;

    /// A distinguishable shard for worker `w`: one node, one single-hop
    /// session, and a violation label unique to the worker so the merged
    /// result proves every submission landed exactly once.
    fn worker_shard(w: u64) -> ObsShard {
        let mut s = ObsShard::sized(1, &[1]);
        s.violations.insert(format!("worker-{w}"), w + 1);
        s
    }

    /// Mirror of the hub's submit path: lock the pool, merge the shard.
    fn submit(pool: &Mutex<ObsShard>, shard: &ObsShard) {
        pool.lock().unwrap().merge(shard);
    }

    /// Every interleaving of two workers submitting into the shared pool
    /// must produce the same pooled totals the sequential merge does.
    #[test]
    fn hub_merge_is_order_independent() {
        loom::model(|| {
            let pool = Arc::new(Mutex::new(ObsShard::default()));
            let handles: Vec<_> = (0..2u64)
                .map(|w| {
                    let pool = Arc::clone(&pool);
                    thread::spawn(move || submit(&pool, &worker_shard(w)))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }

            let got = pool.lock().unwrap();
            let mut want = ObsShard::default();
            for w in 0..2u64 {
                want.merge(&worker_shard(w));
            }
            assert_eq!(got.networks, want.networks);
            assert_eq!(got.violations, want.violations);
            assert_eq!(got.violation_total(), 1 + 2);
        });
    }

    /// A worker submitting while another thread snapshots the pool (the
    /// exporter path) must never observe a torn shard: the snapshot is
    /// either before or after the merge, with nothing in between.
    #[test]
    fn hub_snapshot_never_tears() {
        loom::model(|| {
            let pool = Arc::new(Mutex::new(ObsShard::default()));
            let writer = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || submit(&pool, &worker_shard(0)))
            };
            let snap = pool.lock().unwrap().clone();
            assert!(
                snap.networks == 0 || snap.violation_total() == 1,
                "torn snapshot: networks={} violations={}",
                snap.networks,
                snap.violation_total()
            );
            writer.join().unwrap();
            assert_eq!(pool.lock().unwrap().violation_total(), 1);
        });
    }
}
