// xlint-fixture: path=crates/invindex/src/cache.rs
// The fixture config declares kvindex.store = 10 and cache.shard = 20.
// cache.shard is annotated only inside a test-support region — that
// counts as a use — and nothing annotates kvindex.store, so the
// declaration is reported against lockorder.toml (line 1).

fn production_code_takes_no_lock() {}

#[cfg(test)]
mod support {
    fn serial(m: &std::sync::Mutex<()>) {
        let _g = m.lock(); // xlint::lock(cache.shard)
    }
}
