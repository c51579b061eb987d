/// A precise fault location in the FRL system (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLocation {
    /// Fault in one agent's local memory (its policy weights).
    Agent(usize),
    /// Fault in server memory (the aggregated parameter sets).
    Server,
    /// Fault on the agent→server channel for one agent's upload.
    Uplink(usize),
    /// Fault on the server→agent channel for one agent's download.
    Downlink(usize),
}

/// The paper's two-way grouping of fault locations (§III-C): faults in
/// the data the *server receives* are "agent faults"; faults in the data
/// the *agents receive* are "server faults".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSide {
    /// Agent memory + agent→server communication.
    AgentSide,
    /// Server memory + server→agent communication.
    ServerSide,
}

impl FaultLocation {
    /// The analysis group this location belongs to.
    pub fn side(self) -> FaultSide {
        match self {
            FaultLocation::Agent(_) | FaultLocation::Uplink(_) => FaultSide::AgentSide,
            FaultLocation::Server | FaultLocation::Downlink(_) => FaultSide::ServerSide,
        }
    }
}

impl std::fmt::Display for FaultSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSide::AgentSide => write!(f, "agent"),
            FaultSide::ServerSide => write!(f, "server"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_matches_paper() {
        assert_eq!(FaultLocation::Agent(3).side(), FaultSide::AgentSide);
        assert_eq!(FaultLocation::Uplink(0).side(), FaultSide::AgentSide);
        assert_eq!(FaultLocation::Server.side(), FaultSide::ServerSide);
        assert_eq!(FaultLocation::Downlink(2).side(), FaultSide::ServerSide);
    }
}
