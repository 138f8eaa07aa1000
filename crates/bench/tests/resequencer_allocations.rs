//! What the resequencer (`dpu_core::InOrder`) allocates: nothing while
//! items arrive in order, and nothing left behind once a gap fills. Its
//! users — rp2p per peer, the sequencer, ring and hierarchical
//! broadcasts, `abcast.ct`'s decisions — hold one per stream for the
//! life of an incarnation, so a map node kept after the first in-order
//! item would be a node per stream per stack.
//!
//! One test per file: the counting allocator is process-global, so the
//! measurement must not share its binary with concurrent allocations
//! from unrelated tests. For the same reason it lets the test harness's
//! own thread settle before it counts: on a loaded machine that thread
//! can still be allocating as the test starts.

use dpu_bench::mem::CountingAlloc;
use dpu_core::InOrder;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn in_order_allocates_nothing_and_a_filled_gap_leaves_nothing() {
    let mut order = InOrder::new();
    let mut released = Vec::with_capacity(10_200);
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (allocs0, live0) = (ALLOC.allocs(), ALLOC.live());
    for n in 0..10_000u64 {
        released.extend(order.offer(n, n));
    }
    assert_eq!(ALLOC.allocs() - allocs0, 0, "10 000 items in order allocated");
    assert_eq!(released.len(), 10_000);

    // 99 items ahead of a gap wait in a map; the one that fills it
    // releases all of them, and the emptied map is let go.
    for n in 10_001..10_100u64 {
        released.extend(order.offer(n, n));
    }
    assert!(ALLOC.allocs() > allocs0, "the items ahead of the gap were held somewhere");
    assert_eq!(order.held(), 99);
    released.extend(order.offer(10_000, 10_000));
    assert_eq!(ALLOC.live(), live0, "the filled gap left an allocation behind");
    assert!(released.iter().copied().eq(0..10_100), "released out of order");

    // A stale item is refused without touching anything.
    let allocs = ALLOC.allocs();
    assert_eq!(order.offer(3, 3).count(), 0);
    assert_eq!((ALLOC.allocs(), order.due(), order.held()), (allocs, 10_100, 0));
}
