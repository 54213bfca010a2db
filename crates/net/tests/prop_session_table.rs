//! Property test: the dense per-node `SessionTable` against a reference
//! model.
//!
//! The model is the id-indexed `Vec<Option<S>>` the table used to be.
//! Under random inserts, replacements, removals and re-insertion of
//! freed ids, every observable (`get`, `contains`, `len`, `capacity` and
//! the full `iter` sequence, which must run in id order) must agree with
//! the model after every step.

#![forbid(unsafe_code)]

use lit_net::{SessionId, SessionTable};
use lit_prop::{check, Gen};

/// Assert every observable of `table` against `model`.
fn agree(table: &SessionTable<u64>, model: &[Option<u64>], step: usize) {
    let live: Vec<(SessionId, u64)> = model
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|v| (SessionId(i as u32), v)))
        .collect();
    assert_eq!(table.len(), live.len(), "step {step}: len");
    assert_eq!(table.is_empty(), live.is_empty(), "step {step}: is_empty");
    assert_eq!(table.capacity(), model.len(), "step {step}: capacity");
    let got: Vec<(SessionId, u64)> = table.iter().map(|(id, &v)| (id, v)).collect();
    assert_eq!(
        got, live,
        "step {step}: iter must yield live rows in id order"
    );
    let values: Vec<u64> = table.values().copied().collect();
    let want: Vec<u64> = live.iter().map(|&(_, v)| v).collect();
    assert_eq!(values, want, "step {step}: values in id order");
    // Probe past the high-water mark too: those ids are simply absent.
    for i in 0..model.len() as u32 + 3 {
        let id = SessionId(i);
        let want = model.get(i as usize).copied().flatten();
        assert_eq!(table.get(id).copied(), want, "step {step}: get({i})");
        assert_eq!(
            table.contains(id),
            want.is_some(),
            "step {step}: contains({i})"
        );
    }
}

#[test]
fn session_table_matches_vec_option_model() {
    check("session_table_matches_vec_option_model", |g: &mut Gen| {
        // A small id space forces replacement and id reuse; a large one
        // leaves the index sparse.
        let ids = *g.pick(&[4u64, 16, 64, 4000]);
        let steps = g.size(1, 200);
        let mut table: SessionTable<u64> = SessionTable::new();
        let mut model: Vec<Option<u64>> = Vec::new();
        for step in 0..steps {
            let i = g.below(ids) as usize;
            let id = SessionId(i as u32);
            match g.weighted(&[5, 3, 1]) {
                0 => {
                    let v = g.u64();
                    table.insert(id, v);
                    if model.len() <= i {
                        model.resize(i + 1, None);
                    }
                    model[i] = Some(v);
                }
                1 => {
                    let want = model.get_mut(i).and_then(Option::take);
                    assert_eq!(table.remove(id), want, "step {step}: remove({i})");
                }
                _ => {
                    if let (Some(v), Some(slot)) = (table.get_mut(id), model.get_mut(i)) {
                        *v = v.wrapping_add(1);
                        *slot = Some(*v);
                    }
                }
            }
            agree(&table, &model, step);
        }
        // values_mut walks rows in id order as well.
        let mut order = Vec::new();
        for v in table.values_mut() {
            order.push(*v);
        }
        let want: Vec<u64> = model.iter().flatten().copied().collect();
        assert_eq!(order, want, "values_mut must run in id order");
    });
}

#[test]
fn churn_does_not_grow_the_rows() {
    // Connect/teardown cycles over two reused ids: the table never holds
    // more than two rows, and the index stays at the high-water mark.
    let mut table: SessionTable<u64> = SessionTable::new();
    for cycle in 0..1000u64 {
        let id = SessionId((cycle % 2) as u32);
        table.insert(id, cycle);
        assert!(table.len() <= 2);
        assert_eq!(table.remove(id), Some(cycle));
    }
    assert!(table.is_empty());
    assert_eq!(table.capacity(), 2);
}
