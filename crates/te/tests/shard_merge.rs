//! Shard semantics of [`TicketSet`] as plain data — no WAN, no LP: a shard
//! stores its entries by ascending global scenario index.

use arrow_te::{RestorationTicket, TicketSet};
use arrow_topology::IpLinkId;

fn ticket(pairs: &[(usize, f64)]) -> RestorationTicket {
    RestorationTicket { restored: pairs.iter().map(|&(l, g)| (IpLinkId(l), g)).collect() }
}

#[test]
fn sharded_entries_sort_by_global_index() {
    let set = TicketSet::sharded(vec![
        (5, vec![ticket(&[(0, 10.0)])]),
        (1, vec![ticket(&[(1, 20.0)])]),
        (3, vec![ticket(&[(2, 30.0)])]),
    ]);
    assert_eq!(set.scenario_indices, vec![1, 3, 5]);
    assert_eq!(set.for_scenario(0), &[ticket(&[(1, 20.0)])]);
    assert!(!set.is_full());
}
