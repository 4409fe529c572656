#![warn(missing_docs)]

//! # webmon-streams
//!
//! Update-event stream substrates for the *Web Monitoring 2.0* reproduction.
//!
//! The paper's evaluation (Section V-A.1) drives the scheduler with three
//! kinds of update streams; all of them are built here, from scratch:
//!
//! * a **synthetic Poisson stream** — [`poisson`] — where the parameter `λ`
//!   controls per-resource update intensity;
//! * a **real eBay auction trace** (732 three-day auctions, 11,150 bids) —
//!   unavailable, so [`auction`] synthesizes an equivalent trace with the
//!   documented shape of eBay bidding (late-auction intensity ramp);
//! * a **real RSS news trace** (130 feeds, ~68k events over two months) —
//!   unavailable, so [`news`] synthesizes Zipf-skewed per-feed rates
//!   (the paper itself cites `α ≈ 1.37` for Web feeds) with a diurnal cycle.
//!
//! [`fpn`] implements the FPN(Z) *noisy update model* of \[3\] used in the
//! Figure 15 experiments: with probability `Z` the model predicts an update
//! event exactly; otherwise the prediction deviates from the real event.
//! [`fitted`] implements the homogeneous Poisson-fitted model of the
//! Section V-H news experiment (predict from the rate, not the timestamps).
//!
//! [`bursty`] goes beyond the paper's homogeneous streams with diurnal
//! on/off rate modulation and Pareto-burst interarrivals (plus the
//! [`bursty::UpdateModel`] sum type the declarative workload spec names).
//!
//! [`zipf`] provides the Zipf sampler the workload generator needs (kept
//! here with the other stochastic substrates), and [`rng`] a seeded,
//! forkable RNG wrapper so every trace is reproducible.

pub mod auction;
pub mod bursty;
pub mod fitted;
pub mod fpn;
pub mod io;
pub mod news;
pub mod poisson;
pub mod record;
pub mod rng;
pub mod trace;
pub mod zipf;

pub use auction::{AuctionTrace, AuctionTraceConfig};
pub use bursty::{BurstyError, DiurnalConfig, ParetoBurstConfig, UpdateModel};
pub use fitted::{PoissonFittedModel, PrefixFittedModel};
pub use fpn::{EventPair, FpnModel, NoisyTrace};
pub use io::{read_csv, read_csv_file, write_csv, TraceIoError};
pub use news::NewsTraceConfig;
pub use poisson::{poisson_count, PoissonProcess};
pub use record::{crc32, parse_record, write_all_tagged, write_record, Crc32, Record, RecordError};
pub use rng::SimRng;
pub use trace::UpdateTrace;
pub use zipf::Zipf;
