//! Semi-Markov-model baselines (SMM, Meng et al. IMC'23 — §3.3 of the
//! paper).
//!
//! SMM is the domain-knowledge-heavy prior art that CPT-GPT is compared
//! against: the two-level 3GPP state machine is converted into a
//! semi-Markov model whose transition probabilities and sojourn-time CDFs
//! are fitted per transition on the real trace. The paper evaluates two
//! variants:
//!
//! - **SMM-1** ([`SemiMarkovModel`]): a single model per device type.
//!   Cheap, but a single parameterization cannot capture per-UE
//!   heterogeneity — the paper shows it badly misses flow-length and
//!   sojourn distributions (Table 6).
//! - **SMM-20k** ([`SmmEnsemble`]): the original system clusters UEs into
//!   hundreds of clusters per device type and hour and fits one SMM per
//!   cluster (20 216 models, 283 024 CDFs in total). We implement the same
//!   mechanism with a configurable cluster count (`SMM-k`): k-means over
//!   per-UE behavioural features, one SMM per cluster, generation samples
//!   clusters by population weight.
//!
//! By construction both variants replay the state machine, so they never
//! emit semantic violations (which is why Table 5 omits them).

pub mod clustered;
pub mod kmeans;
pub mod smm;

pub use clustered::SmmEnsemble;
pub use kmeans::kmeans;
pub use smm::SemiMarkovModel;
