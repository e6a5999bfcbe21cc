//! The rule engine: each submodule implements one workspace invariant.
//!
//! Rules push [`Finding`]s into a shared vector; the driver in
//! [`crate::run`] applies `lint:allow` suppressions afterwards, so rules
//! only need to report what they see. Rule names (used in allow comments
//! and JSON output): `panic_freedom`, `cancellation`, `lock_order`,
//! `metric_hygiene`.

pub mod cancellation;
pub mod locks;
pub mod metrics;
pub mod panic_freedom;

/// One rule violation, anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Scan-root-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule name, also the token accepted by `lint:allow(...)`.
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    /// The human-readable one-line form: `file:line: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}
