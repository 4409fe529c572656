//! The data model of Section III: chronons, resources, execution intervals,
//! complex execution intervals, profiles, budgets, schedules, and the
//! capture / completeness arithmetic.

mod budget;
mod builder;
mod capture;
mod cei;
mod costs;
mod instance;
mod interval;
mod profile;
mod resource;
mod schedule;
mod time;

pub use budget::Budget;
pub use builder::InstanceBuilder;
pub use capture::{
    cei_captured, ei_capture_chronon, ei_captured, evaluate_outcomes, evaluate_schedule,
    gained_completeness,
};
pub use cei::{Cei, CeiId};
pub use costs::ProbeCosts;
pub use instance::Instance;
pub use interval::Ei;
pub use profile::{compute_rank, rank_of_profiles, Profile, ProfileId};
pub use resource::ResourceId;
pub use schedule::Schedule;
pub use time::{Chronon, Epoch};
