//! A refresh costs the delta, not the retained output: the same 100-row
//! delta refreshed over a 10k-row and over a 40k-row base allocates about
//! the same number of times. Allocations are counted by a global allocator
//! into a thread-local counter, so tests running in parallel on other
//! threads do not add to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cleanm_core::{CleanDb, EngineProfile};
use cleanm_datagen::customer::CustomerGen;
use cleanm_incr::IncrementalSession;
use cleanm_values::Table;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The unified FD + DEDUP query, and a grouped aggregate with a `HAVING`.
const STANDING: [&str; 2] = [
    "SELECT * FROM customer c \
     FD(c.address | c.nationkey) \
     DEDUP(exact, LD, 0.8, c.address, c.name)",
    "SELECT c.address AS a, count(*) AS n, sum(c.nationkey) AS s, max(c.nationkey) AS m \
     FROM customer c GROUP BY c.address HAVING count(*) > 1",
];

const DELTA_ROWS: usize = 100;

/// Install the standing query `sql` over the first `base_rows` rows of
/// `all`, append its last `DELTA_ROWS` rows, and count the allocations of
/// the one refresh that absorbs them.
fn refresh_allocations(sql: &str, all: &Table, base_rows: usize) -> u64 {
    let slice = |rows: &[_]| Table::new(all.schema.clone(), rows.to_vec());
    let mut db = CleanDb::new(EngineProfile::clean_db());
    db.register("customer", slice(&all.rows[..base_rows]));
    let mut session = IncrementalSession::new(db);
    let (id, _) = session.install(sql).expect("install");
    let delta = slice(&all.rows[all.rows.len() - DELTA_ROWS..]);
    session.append("customer", delta).expect("append");

    let before = ALLOCATIONS.with(Cell::get);
    let report = session.refresh(id).expect("refresh");
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    let info = report.incremental.clone().expect("a refresh report");
    assert_eq!((info.delta_rows, info.fallback_ops), (DELTA_ROWS, 0));
    let outputs = report.ops.iter().map(|op| op.output.len());
    assert!(
        outputs.clone().all(|n| n > 0),
        "{sql}: {:?}",
        outputs.collect::<Vec<_>>()
    );
    allocations
}

#[test]
fn refresh_allocations_do_not_grow_with_the_base() {
    let all = CustomerGen::new(42)
        .rows(40_000 + DELTA_ROWS)
        .generate()
        .table;
    for sql in STANDING {
        let small = refresh_allocations(sql, &all, 10_000);
        let large = refresh_allocations(sql, &all, 40_000);
        let ratio = large.max(small) as f64 / large.min(small).max(1) as f64;
        assert!(
            ratio <= 1.2,
            "{sql}: one refresh allocates {small} times over 10k rows, {large} over 40k \
             ({ratio:.2}x)"
        );
    }
}
