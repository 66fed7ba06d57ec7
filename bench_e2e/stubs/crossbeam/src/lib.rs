//! `crossbeam::thread::scope` as the workspace uses it, over
//! `std::thread::scope`: spawned closures receive the scope, handles
//! join to a `thread::Result`, and `scope` itself returns `Ok` unless
//! the body panics (std re-raises a child's unjoined panic instead of
//! returning `Err`; every caller here joins its handles).

pub mod thread {
    use std::thread as st;

    pub struct Scope<'scope, 'env: 'scope>(&'scope st::Scope<'scope, 'env>);

    pub struct ScopedJoinHandle<'scope, T>(st::ScopedJoinHandle<'scope, T>);

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> st::Result<T> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.0;
            ScopedJoinHandle(inner.spawn(move || f(&Scope(inner))))
        }
    }

    pub fn scope<'env, F, R>(f: F) -> st::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(st::scope(|s| f(&Scope(s))))
    }
}
