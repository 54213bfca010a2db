//! Known-bad fixture for `nondeterministic-iteration`: HashMap/HashSet
//! iteration and draining inside an engine crate. Iteration order of the
//! std hash collections varies per process (RandomState), so any of
//! these leaking into the event path breaks seeded replay: the same
//! seed must reproduce byte-identical results. Never compiled.
#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};

struct Registry {
    flows: HashMap<u64, Flow>,
    dirty: HashSet<u64>,
}

impl Registry {
    fn visit_all(&self) {
        for (id, flow) in self.flows.iter() {
            touch(*id, flow);
        }
    }

    fn keys_into_vec(&self) -> Vec<u64> {
        self.flows.keys().copied().collect()
    }

    fn drain_dirty(&mut self) {
        for id in self.dirty.drain() {
            retire(id);
        }
    }

    fn retain_order_dependent(&mut self) {
        self.flows.retain(|id, f| f.live(*id));
    }
}

fn local_binding_by_init() {
    let scratch = HashMap::new();
    for v in scratch.values() {
        push(v);
    }
}

fn for_loop_over_annotated(m: &HashMap<u64, u64>) {
    for (k, v) in m {
        push2(*k, *v);
    }
}
