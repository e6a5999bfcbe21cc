//! Bad-tree fixture: a raw lock, an undeclared name, a row constructed
//! twice and (in the doc) a declared row nobody constructs.

use lock::Named;

pub struct Manager {
    declared: Named<u32>,
    raw: std::sync::Mutex<u32>,
    undeclared: Named<u32>,
}

pub fn manager() -> Manager {
    Manager {
        declared: Named::new("a.outer", 0),
        raw: Default::default(),
        undeclared: Named::new("c.undeclared", 0),
    }
}

pub fn twice() -> Named<u32> {
    Named::new("a.outer", 1)
}
