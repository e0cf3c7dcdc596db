// Known-bad: a suppression with no `-- <reason>` tail.

pub fn noted() -> u32 {
    // lint: allow(ordering-comment)
    7
}
