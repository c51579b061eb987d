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

impl std::fmt::Display for FaultSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSide::AgentSide => write!(f, "agent"),
            FaultSide::ServerSide => write!(f, "server"),
        }
    }
}
