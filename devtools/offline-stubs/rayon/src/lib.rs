//! Offline stub for `rayon`: the parallel-iterator entry points return
//! plain std iterators, so everything runs *sequentially but correctly*.
//! The workspace's determinism contract (results independent of thread
//! count) means sequential execution produces the same answers — only
//! slower. See devtools/offline-stubs/README.md.

pub fn current_num_threads() -> usize {
    1
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("offline rayon stub: thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    _num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self._num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool)
    }

    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        Ok(())
    }
}

pub struct ThreadPool;

impl ThreadPool {
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        1
    }
}

pub mod iter {
    pub trait IntoParallelIterator {
        type Iter: Iterator<Item = Self::Item>;
        type Item;

        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: IntoIterator> IntoParallelIterator for I {
        type Iter = I::IntoIter;
        type Item = I::Item;

        fn into_par_iter(self) -> I::IntoIter {
            self.into_iter()
        }
    }

    /// The `ParallelIterator` adapters that std's `Iterator` lacks.
    pub trait ParallelIterator: Iterator + Sized {
        /// One `init()` value serves the whole (sequential) iteration.
        fn map_init<F, INIT, T, R>(self, init: INIT, map_op: F) -> impl Iterator<Item = R>
        where
            F: Fn(&mut T, Self::Item) -> R + Sync + Send,
            INIT: Fn() -> T + Sync + Send,
            R: Send,
        {
            let mut state = init();
            self.map(move |item| map_op(&mut state, item))
        }
    }

    impl<I: Iterator> ParallelIterator for I {}

    pub trait IntoParallelRefIterator<'data> {
        type Iter: Iterator<Item = Self::Item>;
        type Item: 'data;

        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, I: 'data + ?Sized> IntoParallelRefIterator<'data> for I
    where
        &'data I: IntoIterator,
    {
        type Iter = <&'data I as IntoIterator>::IntoIter;
        type Item = <&'data I as IntoIterator>::Item;

        fn par_iter(&'data self) -> Self::Iter {
            self.into_iter()
        }
    }

    pub trait IntoParallelRefMutIterator<'data> {
        type Iter: Iterator<Item = Self::Item>;
        type Item: 'data;

        fn par_iter_mut(&'data mut self) -> Self::Iter;
    }

    impl<'data, I: 'data + ?Sized> IntoParallelRefMutIterator<'data> for I
    where
        &'data mut I: IntoIterator,
    {
        type Iter = <&'data mut I as IntoIterator>::IntoIter;
        type Item = <&'data mut I as IntoIterator>::Item;

        fn par_iter_mut(&'data mut self) -> Self::Iter {
            self.into_iter()
        }
    }
}

pub mod slice {
    pub trait ParallelSlice<T: Sync> {
        fn as_parallel_slice(&self) -> &[T];

        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.as_parallel_slice().chunks(chunk_size)
        }

        fn par_windows(&self, window_size: usize) -> std::slice::Windows<'_, T> {
            self.as_parallel_slice().windows(window_size)
        }
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn as_parallel_slice(&self) -> &[T] {
            self
        }
    }

    pub trait ParallelSliceMut<T: Send> {
        fn as_parallel_slice_mut(&mut self) -> &mut [T];

        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.as_parallel_slice_mut().chunks_mut(chunk_size)
        }
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn as_parallel_slice_mut(&mut self) -> &mut [T] {
            self
        }
    }
}

pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}
