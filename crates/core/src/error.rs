//! Error types for the RMT virtual machine.

use core::fmt;
use rkd_ml::MlError;

/// Errors raised by the verifier when admitting an RMT program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A table referenced an undefined context field.
    UnknownField {
        /// Table or action where the reference occurred.
        site: String,
        /// The offending field id.
        field: u16,
    },
    /// An entry referenced a table id that does not exist.
    UnknownTable(u16),
    /// An entry or instruction referenced an action that does not exist.
    UnknownAction(u16),
    /// An instruction referenced a map that does not exist.
    UnknownMap(u16),
    /// An instruction referenced an ML model slot that does not exist.
    UnknownModel(u16),
    /// An entry's match key arity does not match its table's key schema.
    KeyArityMismatch {
        /// Table id.
        table: u16,
        /// Expected number of key components.
        expected: usize,
        /// Provided number of key components.
        got: usize,
    },
    /// An entry's match-key kind does not match the table's match kind.
    KeyKindMismatch {
        /// Table id.
        table: u16,
    },
    /// A register index was out of range.
    BadRegister(u8),
    /// A vector register index was out of range.
    BadVectorRegister(u8),
    /// A jump target was outside the action body.
    BadJumpTarget {
        /// Action id.
        action: u16,
        /// Instruction index of the jump.
        at: usize,
        /// The invalid target.
        target: usize,
    },
    /// A backward jump was found without a declared loop bound.
    UnboundedLoop {
        /// Action id.
        action: u16,
        /// Instruction index of the back edge.
        at: usize,
    },
    /// An action can fall off the end without `Exit`.
    MissingExit(u16),
    /// An instruction reads a register that may be uninitialized.
    UninitializedRegister {
        /// Action id.
        action: u16,
        /// Instruction index.
        at: usize,
        /// Register number.
        reg: u8,
    },
    /// The worst-case instruction count exceeds the execution budget.
    ExecutionBudgetExceeded {
        /// Action id.
        action: u16,
        /// Computed worst-case instruction count.
        worst_case: u64,
        /// Budget.
        budget: u64,
    },
    /// A helper call is not in the whitelist for this hook class.
    HelperNotAllowed {
        /// Action id.
        action: u16,
        /// Helper name.
        helper: &'static str,
    },
    /// A model guard's own parameters are incoherent.
    BadGuard {
        /// Model slot.
        model: u16,
    },
    /// An ML model's stored structure is inconsistent (see
    /// [`crate::prog::ModelSpec::validate`]).
    MalformedModel {
        /// Model slot.
        model: u16,
        /// What is wrong with it.
        source: MlError,
    },
    /// An ML model failed the admission cost check.
    ModelOverBudget {
        /// Model slot.
        model: u16,
        /// Underlying cost error.
        source: MlError,
    },
    /// A model's declared feature arity disagrees with the feature
    /// vector the action constructs.
    ModelArityMismatch {
        /// Model slot.
        model: u16,
        /// Features the model expects.
        expected: usize,
        /// Features the action supplies.
        got: usize,
    },
    /// A model or tensor reads a feature vector whose length is not
    /// one known value: it differs between the paths that reach the
    /// read.
    VectorLengthUnknown {
        /// Action id.
        action: u16,
        /// Instruction index of the read.
        at: usize,
        /// Model slot (tensor id for `MatMul`).
        model: u16,
    },
    /// A tail-call chain can exceed the configured depth.
    TailCallTooDeep {
        /// Maximum allowed depth.
        max: usize,
    },
    /// An action emits resource effects but has no rate-limit guard and
    /// the policy requires one.
    MissingRateLimit {
        /// Action id.
        action: u16,
    },
    /// A cross-application aggregate read is not routed through the DP
    /// mechanism.
    PrivacyViolation {
        /// Action id.
        action: u16,
        /// Explanation.
        reason: &'static str,
    },
    /// The program's worst-case privacy charge exceeds the budget.
    PrivacyBudgetExceeded {
        /// Worst-case epsilon (milli-units) per invocation.
        worst_case_milli_eps: u64,
        /// Configured budget.
        budget_milli_eps: u64,
    },
    /// The program declares more of something than the VM supports.
    TooLarge {
        /// What was oversized ("tables", "entries", ...).
        what: &'static str,
        /// Declared count.
        got: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// A duplicate name or id was declared.
    Duplicate {
        /// What was duplicated.
        what: &'static str,
        /// The duplicated identifier.
        name: String,
    },
    /// A map declaration is internally inconsistent (e.g. `per_cpu` on
    /// a kind without well-defined cross-shard aggregation).
    BadMapDef {
        /// The offending map id.
        map: u16,
        /// Why the declaration was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownField { site, field } => {
                write!(f, "{site}: unknown context field {field}")
            }
            VerifyError::UnknownTable(t) => write!(f, "unknown table {t}"),
            VerifyError::UnknownAction(a) => write!(f, "unknown action {a}"),
            VerifyError::UnknownMap(m) => write!(f, "unknown map {m}"),
            VerifyError::UnknownModel(m) => write!(f, "unknown model {m}"),
            VerifyError::KeyArityMismatch {
                table,
                expected,
                got,
            } => write!(f, "table {table}: key arity {got}, expected {expected}"),
            VerifyError::KeyKindMismatch { table } => {
                write!(f, "table {table}: match-key kind mismatch")
            }
            VerifyError::BadRegister(r) => write!(f, "bad register r{r}"),
            VerifyError::BadVectorRegister(v) => write!(f, "bad vector register v{v}"),
            VerifyError::BadJumpTarget { action, at, target } => {
                write!(f, "action {action}: insn {at} jumps to invalid target {target}")
            }
            VerifyError::UnboundedLoop { action, at } => {
                write!(f, "action {action}: unbounded back edge at insn {at}")
            }
            VerifyError::MissingExit(a) => write!(f, "action {a}: control can fall off the end"),
            VerifyError::UninitializedRegister { action, at, reg } => {
                write!(f, "action {action}: insn {at} reads uninitialized r{reg}")
            }
            VerifyError::ExecutionBudgetExceeded {
                action,
                worst_case,
                budget,
            } => write!(
                f,
                "action {action}: worst case {worst_case} insns exceeds budget {budget}"
            ),
            VerifyError::HelperNotAllowed { action, helper } => {
                write!(f, "action {action}: helper {helper} not allowed at this hook")
            }
            VerifyError::BadGuard { model } => {
                write!(f, "model {model}: malformed guard (fallback/confidence out of range)")
            }
            VerifyError::MalformedModel { model, source }
            | VerifyError::ModelOverBudget { model, source } => {
                write!(f, "model {model}: {source}")
            }
            VerifyError::ModelArityMismatch {
                model,
                expected,
                got,
            } => write!(f, "model {model}: expects {expected} features, action supplies {got}"),
            VerifyError::VectorLengthUnknown { action, at, model } => write!(
                f,
                "action {action} insn {at}: model {model} reads a vector whose length differs between paths"
            ),
            VerifyError::TailCallTooDeep { max } => {
                write!(f, "tail-call chain exceeds max depth {max}")
            }
            VerifyError::MissingRateLimit { action } => {
                write!(f, "action {action}: emits resource effects without a rate-limit guard")
            }
            VerifyError::PrivacyViolation { action, reason } => {
                write!(f, "action {action}: privacy violation: {reason}")
            }
            VerifyError::PrivacyBudgetExceeded {
                worst_case_milli_eps,
                budget_milli_eps,
            } => write!(
                f,
                "worst-case privacy charge {worst_case_milli_eps} m-eps exceeds budget {budget_milli_eps}"
            ),
            VerifyError::TooLarge { what, got, max } => {
                write!(f, "too many {what}: {got} > {max}")
            }
            VerifyError::Duplicate { what, name } => write!(f, "duplicate {what}: {name}"),
            VerifyError::BadMapDef { map, reason } => write!(f, "map {map}: {reason}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Errors raised while the VM is running or being reconfigured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The referenced program is not installed.
    NoSuchProgram(u32),
    /// The referenced table does not exist in the program.
    NoSuchTable(u16),
    /// The referenced model slot does not exist in the program.
    NoSuchModel(u16),
    /// A runtime entry failed validation against the table schema.
    BadEntry(String),
    /// A table is full (`max_entries` reached).
    TableFull(u16),
    /// A map operation failed (wrong kind, capacity, missing key).
    MapError(&'static str),
    /// Interpreter fuel ran out (cannot happen for verified programs;
    /// kept as defense in depth).
    FuelExhausted,
    /// An instruction faulted at runtime (division by zero is defined,
    /// so this covers only internal invariant breaks).
    Fault(&'static str),
    /// A replacement model failed re-verification.
    Verify(VerifyError),
    /// The DP privacy budget is exhausted.
    PrivacyBudgetExhausted,
    /// The control-plane request was malformed.
    BadRequest(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoSuchProgram(p) => write!(f, "no such program {p}"),
            VmError::NoSuchTable(t) => write!(f, "no such table {t}"),
            VmError::NoSuchModel(m) => write!(f, "no such model {m}"),
            VmError::BadEntry(s) => write!(f, "bad entry: {s}"),
            VmError::TableFull(t) => write!(f, "table {t} full"),
            VmError::MapError(s) => write!(f, "map error: {s}"),
            VmError::FuelExhausted => write!(f, "fuel exhausted"),
            VmError::Fault(s) => write!(f, "fault: {s}"),
            VmError::Verify(e) => write!(f, "verification failed: {e}"),
            VmError::PrivacyBudgetExhausted => write!(f, "privacy budget exhausted"),
            VmError::BadRequest(s) => write!(f, "bad request: {s}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<VerifyError> for VmError {
    fn from(e: VerifyError) -> VmError {
        VmError::Verify(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_error_display() {
        let e = VerifyError::UnknownField {
            site: "table t0".into(),
            field: 3,
        };
        assert_eq!(e.to_string(), "table t0: unknown context field 3");
        assert!(VerifyError::UnboundedLoop { action: 1, at: 5 }
            .to_string()
            .contains("back edge"));
        assert!(VerifyError::MissingExit(2).to_string().contains("fall off"));
    }

    #[test]
    fn vm_error_display_and_from() {
        let e: VmError = VerifyError::UnknownTable(9).into();
        assert!(e.to_string().contains("unknown table 9"));
        assert_eq!(VmError::FuelExhausted.to_string(), "fuel exhausted");
        assert!(VmError::PrivacyBudgetExhausted
            .to_string()
            .contains("privacy"));
    }
}
