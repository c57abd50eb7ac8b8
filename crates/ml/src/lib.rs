//! A minimal machine-learning substrate: dense + CSR tensors,
//! zero-clone reverse-mode autodiff, GIN graph layers, Adam and a
//! data-parallel training loop.
//!
//! The ALMOST paper's attacks (OMLA) and defence (the adversarially
//! trained proxy model M\*) are GIN subgraph classifiers implemented in
//! PyTorch; this crate replaces that dependency with a self-contained
//! implementation built around the sparsity of AIG localities (fan-in
//! ≤ 2, so `Â = A + I` carries ~3 entries per row):
//!
//! - [`tensor::Matrix`] / [`tensor::SparseMatrix`] — dense row-major
//!   `f32` matrices (He init included) and CSR adjacency operators whose
//!   `spmm` aggregates neighbourhoods in O(E·d) instead of O(n²·d),
//!   bit-identically to the dense product.
//! - [`tape::Tape`] — reverse-mode autodiff over exactly the ops a GIN
//!   classifier needs, with in-place gradient accumulation and a
//!   recycled-buffer workspace (allocation-free once warm); every
//!   gradient is finite-difference checked in tests.
//! - [`gin::GinClassifier`] — GIN message passing + mean-pool readout +
//!   MLP head, the OMLA model shape; minibatches fuse into one
//!   block-diagonal union per gradient sub-block.
//! - [`optim::Adam`], [`train::train`] — minibatch training that fans
//!   fixed-size gradient sub-blocks across the `almost_pool` workers
//!   (`ALMOST_JOBS` sets the width, results are bit-identical at any
//!   width). Algorithm 1's every-R-epochs adversarial augmentation calls
//!   [`train::train`] once per R-epoch round; the per-epoch hook of
//!   [`train::train_with_callback`] serves epoch wall-time measurements.
//!
//! # Example
//!
//! ```
//! use almost_ml::gin::{Graph, GinClassifier};
//! use almost_ml::tensor::Matrix;
//!
//! let model = GinClassifier::new(2, 8, 2, 42);
//! let g = Graph::from_edges(2, &[(0, 1)], Matrix::zeros(2, 2), false);
//! let p = model.predict(&g);
//! assert!((0.0..=1.0).contains(&p));
//! ```

pub mod gin;
pub mod nn;
pub mod optim;
pub mod tape;
pub mod tensor;
pub mod train;

pub use gin::{GinClassifier, Graph};
pub use optim::Adam;
pub use tape::Tape;
pub use tensor::{Matrix, SparseMatrix};
pub use train::{train, train_dense_reference, train_with_callback, TrainConfig, TrainStats};
