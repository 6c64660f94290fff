//! Seeded cases for the repository's clippy bans: `clippy.toml`'s
//! `disallowed-methods`/`disallowed-types` and the scaffolding lints of
//! `[workspace.lints.clippy]`. `tests/clippy_bans.rs` asserts exactly
//! which lines clippy reports, so each case sits on a known line.

use std::collections::BinaryHeap;
use std::fs::write as put;
use std::fs::{rename, write, File};
use std::io;
use std::path::Path;
use std::thread::{scope, spawn, Builder, JoinHandle};
use std::time::Instant;

// Thread creation: only the engine's scheduler may spawn.
pub fn spawn_path() -> JoinHandle<()> {
    std::thread::spawn(|| {})
}
pub fn spawn_bare() -> JoinHandle<()> {
    spawn(|| {})
}
pub fn scope_path() {
    std::thread::scope(|_| {});
}
pub fn scope_bare() {
    scope(|_| {});
}
pub fn builder_path() -> Builder {
    std::thread::Builder::new()
}
pub fn builder_bare() -> Builder {
    Builder::new()
}

// Timing: only telemetry's Stopwatch reads the clock.
pub fn instant_path() -> Instant {
    std::time::Instant::now()
}
pub fn instant_bare() -> Instant {
    Instant::now()
}

// Filesystem mutation: only the Vfs seam writes.
pub fn write_path(p: &Path) -> io::Result<()> {
    std::fs::write(p, b"x")
}
pub fn write_bare(p: &Path) -> io::Result<()> {
    write(p, b"x")
}
pub fn write_alias(p: &Path) -> io::Result<()> {
    put(p, b"x")
}
pub fn rename_path(a: &Path, b: &Path) -> io::Result<()> {
    std::fs::rename(a, b)
}
pub fn rename_bare(a: &Path, b: &Path) -> io::Result<()> {
    rename(a, b)
}
pub fn create_path(p: &Path) -> io::Result<File> {
    std::fs::File::create(p)
}
pub fn create_bare(p: &Path) -> io::Result<File> {
    File::create(p)
}
pub fn reads_stay_legal(p: &Path) -> io::Result<String> {
    std::fs::read_to_string(p)
}

// Heaps: only the routing reference solver keeps one.
pub fn heap_in_signature(h: BinaryHeap<u32>) -> usize {
    h.len()
}
pub fn heap_path() -> usize {
    std::collections::BinaryHeap::<u32>::new().len()
}

// Scaffolding macros.
pub fn unfinished() -> u32 {
    todo!()
}
pub fn stubbed() -> u32 {
    unimplemented!()
}
pub fn debug_print(x: u32) -> u32 {
    dbg!(x)
}
macro_rules! my_todo {
    () => {
        0
    };
}
pub fn similarly_named_macro() -> u32 {
    my_todo!()
}

// Mentions in comments and strings are not calls: std::fs::write(p, b).
pub const MENTION: &str = "std::thread::spawn(|| {}) Instant::now() BinaryHeap";

// Sanctioned homes: allowed items, statements and modules are not
// reported; an allow for a different lint waives nothing.
#[allow(clippy::disallowed_methods)]
pub fn sanctioned_fn() {
    std::thread::scope(|_| {});
}
pub fn sanctioned_statement(p: &Path) -> io::Result<()> {
    #[allow(clippy::disallowed_methods)]
    let f = File::create(p)?;
    f.sync_all()
}
pub mod sanctioned_module {
    #![allow(clippy::disallowed_types)]
    use std::collections::BinaryHeap;
    pub fn solve() -> BinaryHeap<u32> {
        BinaryHeap::new()
    }
}
#[allow(clippy::unimplemented)]
pub fn permanent_stub() -> u32 {
    unimplemented!()
}
#[allow(clippy::disallowed_types)]
pub fn wrong_waiver() -> Instant {
    Instant::now()
}

#[cfg(test)]
mod tests {
    #[test]
    fn dbg_is_allowed_in_tests() {
        assert_eq!(dbg!(1), 1);
    }

    #[test]
    fn bans_still_apply_in_tests() {
        std::thread::scope(|_| {});
    }
}
