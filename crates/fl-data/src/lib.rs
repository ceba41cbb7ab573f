//! # fedmp-data
//!
//! Seeded synthetic datasets and federated partitioners for the FedMP
//! reproduction.
//!
//! The paper evaluates on MNIST, CIFAR-10, EMNIST, Tiny-ImageNet and Penn
//! TreeBank; none are available offline, so this crate generates
//! **learnable synthetic stand-ins with identical tensor shapes**:
//!
//! * Image tasks use class-conditional smooth prototypes plus noise —
//!   a CNN genuinely has to learn spatial features, accuracy rises with
//!   training, and over-pruning demonstrably destroys it.
//! * The language task uses a Markov chain with a Zipfian vocabulary, so
//!   perplexity behaves like on natural text.
//!
//! Federated splits implement the paper's exact non-IID definitions
//! (§V-F): label-skew (`y%` of a worker's data from one dominant label)
//! for MNIST/CIFAR-10-like tasks, and missing-classes (each worker lacks
//! `y` classes) for EMNIST/Tiny-ImageNet-like tasks.

mod image;
mod loader;
mod partition;
mod synth;
mod text;

pub use image::ImageDataset;
pub use loader::BatchIter;
pub use partition::{iid_partition, label_skew_partition, missing_classes_partition, Partition};
pub use synth::{cifar_like, emnist_like, mnist_like, tiny_imagenet_like, SynthSpec};
pub use text::{ptb_like, TextBatch, TextDataset};
