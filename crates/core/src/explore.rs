#![cfg(test)]
//! One exhaustive explorer for the protocols' pure transition functions,
//! `coord::Coord::step` and `recovery::RecoveryTracker::step`: breadth-first
//! over every state a [`Model`] reaches, states told apart by a
//! fingerprint. The first violation panics with the shortest schedule that
//! reaches it, printed as a literal that [`replay`] takes.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// A protocol and its environment, within bounds.
pub(crate) trait Model {
    type State: Hash;
    type Act: Copy + Debug + PartialEq;

    fn start(&self) -> Self::State;

    /// The actions `s` enables, every environment choice at its default.
    fn enabled(&self, s: &Self::State) -> Vec<Self::Act>;

    /// `act` taken in `s`; `Err` names the invariant broken. Beside the
    /// next state: the same act with another environment choice, when
    /// taking it showed that the choice mattered.
    fn apply(
        &self,
        s: &Self::State,
        act: Self::Act,
    ) -> Result<(Self::State, Option<Self::Act>), String>;

    /// `Err` if `s` itself is a violation (a stuck state).
    fn check(&self, s: &Self::State) -> Result<(), String>;

    /// `act` with every environment choice at its default, as
    /// [`Model::enabled`] lists it.
    fn plain(&self, act: Self::Act) -> Self::Act {
        act
    }
}

fn fingerprint<T: Hash>(s: &T) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Explores every state `model` reaches, breadth-first; panics, naming
/// `bounds`, with the shortest schedule to the first violation. Returns
/// the states seen.
pub(crate) fn explore<M: Model>(model: &M, bounds: impl Debug) -> usize {
    let start = model.start();
    let mut seen = HashSet::from([fingerprint(&start)]);
    // Per state, its parent and the action that reached it.
    let mut trail: Vec<(usize, Option<M::Act>)> = vec![(0, None)];
    let mut queue = VecDeque::from([(start, 0)]);
    let fail = |trail: &[(usize, Option<M::Act>)], mut id: usize, last: Option<M::Act>, why| -> ! {
        let mut schedule: Vec<M::Act> = last.into_iter().collect();
        while let (parent, Some(act)) = trail[id] {
            schedule.push(act);
            id = parent;
        }
        schedule.reverse();
        panic!("{bounds:?}: {why}\nshortest schedule ({} steps): &{schedule:?}", schedule.len());
    };
    while let Some((s, id)) = queue.pop_front() {
        if let Err(why) = model.check(&s) {
            fail(&trail, id, None, why);
        }
        for act in model.enabled(&s) {
            let mut tried = Some(act);
            while let Some(act) = tried.take() {
                match model.apply(&s, act) {
                    Ok((next, other)) => {
                        tried = other;
                        if seen.insert(fingerprint(&next)) {
                            trail.push((id, Some(act)));
                            queue.push_back((next, trail.len() - 1));
                        }
                    }
                    Err(why) => fail(&trail, id, Some(act), why),
                }
            }
        }
    }
    seen.len()
}

/// Takes `schedule` in order, every invariant checked and every step
/// enabled, and returns where it ends, which must not be a violation.
pub(crate) fn replay<M: Model>(model: &M, schedule: &[M::Act]) -> M::State {
    let mut s = model.start();
    for (k, &act) in schedule.iter().enumerate() {
        let plain = model.plain(act);
        assert!(model.enabled(&s).contains(&plain), "step {k}, {act:?}, is not enabled");
        s = model.apply(&s, act).unwrap_or_else(|why| panic!("step {k}, {act:?}: {why}")).0;
    }
    model.check(&s).unwrap_or_else(|why| panic!("after the schedule: {why}"));
    s
}
