//! Where the readers' rule violations go: the loaders stop at the first,
//! the `validate_*` functions collect them all, so each rule is written
//! once. `worldsim::worldlog` keeps its own copy, since sharing this one
//! would make the world simulator depend on `obs`.

/// A reader's violations, stopping at the first or collecting them all.
pub(crate) struct Faults {
    collect: bool,
    pub(crate) found: Vec<String>,
}

/// A pass cannot go on: its caller stops at the first violation, or
/// nothing past this one can be checked.
pub(crate) struct Stop;

impl Faults {
    pub(crate) fn stop_at_first() -> Faults {
        Faults {
            collect: false,
            found: Vec::new(),
        }
    }

    pub(crate) fn collect_all() -> Faults {
        Faults {
            collect: true,
            found: Vec::new(),
        }
    }

    /// Record a violation the pass can check past.
    pub(crate) fn report(&mut self, violation: String) -> Result<(), Stop> {
        self.found.push(violation);
        if self.collect {
            Ok(())
        } else {
            Err(Stop)
        }
    }

    /// Record a violation past which nothing can be checked.
    pub(crate) fn fatal(&mut self, violation: String) -> Stop {
        self.found.push(violation);
        Stop
    }

    /// A loader's answer: the value when its pass found nothing, else
    /// the first violation.
    pub(crate) fn verdict<T>(self, outcome: Result<T, Stop>) -> Result<T, String> {
        match self.found.into_iter().next() {
            Some(first) => Err(first),
            None => outcome.map_err(|Stop| "refused".to_string()),
        }
    }
}
