// xlint-fixture: path=crates/invindex/src/cache.rs
// The fixture config declares kvindex.store = 10 and cache.shard = 20.
// cache.shard is annotated only inside a test-support region — that
// counts as a use — and nothing annotates kvindex.store, so the
// declaration is reported at its class's line in the fixture table
// (line 2; the live table is crates/obs/src/lockrank.rs).

fn production_code_takes_no_lock() {}

#[cfg(test)]
mod support {
    fn serial(m: &std::sync::Mutex<()>) {
        let _g = m.lock(); // xlint::lock(cache.shard)
    }
}
