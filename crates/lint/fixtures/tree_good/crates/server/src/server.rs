//! Good-tree fixture: every lock is a declared `Named`/`NamedRw`.

use lock::{Named, NamedRw};

pub struct State {
    outer: Named<u32>,
    inner: NamedRw<u32>,
}

pub fn state() -> State {
    State {
        outer: Named::new("a.outer", 0),
        inner: NamedRw::new("b.inner", 0),
    }
}

#[cfg(test)]
mod tests {
    // Test code may hold raw locks and reuse declared names.
    fn scratch() -> (std::sync::Mutex<u32>, super::Named<u32>) {
        (Default::default(), super::Named::new("a.outer", 1))
    }
}
