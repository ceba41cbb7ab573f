//! One engine module per training method the paper evaluates; the
//! synchronous baselines that are configurations of FedMP's round body
//! share `baselines`.

pub mod r#async;
pub mod baselines;
pub mod fedmp;
