#!/usr/bin/env python
"""Road-network maintenance analytics with the RC-tree query toolkit.

Scenario: a logistics operator maintains the *active* road tree of a rural
region (a spanning forest of open roads; closures and re-openings arrive in
batches).  Dispatch needs instant answers to:

- are two depots reachable? what is the worst (heaviest-grade) road on the
  route, the total route distance, and the hop count?  (path aggregates)
- how large is a depot's reachable region, and what is its worst-case
  end-to-end distance (diameter) and the farthest site from the depot?
  (component aggregates + eccentricity toolkit, all O(lg n))

Everything updates under batch link/cut -- no recomputation from scratch.

Run:  python examples/fleet_dispatch.py
"""

import random

from repro.trees import DynamicForest

N = 400  # road junctions


def main() -> None:
    rng = random.Random(13)
    roads = DynamicForest(N, seed=1, augment="full")  # path sums, diameters

    # Build the initial road tree: junction i connects to an earlier one.
    links = []
    for v in range(1, N):
        u = rng.randrange(max(0, v - 20), v)  # local-ish connections
        links.append((u, v, round(rng.uniform(1.0, 15.0), 1), v))
    roads.batch_link(links)
    print(f"initial network: {roads.num_edges} roads, "
          f"{roads.num_components} regions")

    depot, site = 3, N - 5
    agg = roads.path_aggregate(depot, site)
    print(f"\nroute {depot} -> {site}:")
    print(f"  distance {agg.total:.1f} km over {agg.count} segments; "
          f"worst segment {agg.max_w:.1f} km (road id {agg.max_eid})")
    print(f"  region size {roads.component_size(depot)} junctions, "
          f"diameter {roads.component_diameter(depot):.1f} km")
    far, dist = roads.farthest_vertex(depot)
    print(f"  farthest site from depot: junction {far} at {dist:.1f} km")

    # A storm closes a batch of roads; crews reopen others.
    print("\n-- storm: 25 closures + 10 reopenings per round --")
    closed: list[tuple[int, int, float, int]] = []
    next_eid = N
    for day in range(5):
        live_ids = [eid for _, _, _, eid in roads.edges()]
        to_close = rng.sample(live_ids, min(25, len(live_ids)))
        info = [(eid, roads.edge_info(eid)) for eid in to_close]
        reopen = []
        for _ in range(min(10, len(closed))):
            u, v, w, _ = closed.pop(rng.randrange(len(closed)))
            if not roads.connected(u, v):
                reopen.append((u, v, w, next_eid))
                next_eid += 1
        roads.batch_update(links=reopen, cut_eids=to_close, check_forest=True)
        closed.extend((u, v, w, eid) for eid, (u, v, w) in info)

        reachable = roads.connected(depot, site)
        print(
            f"day {day}: {roads.num_components:4d} regions | depot region "
            f"size {roads.component_size(depot):4d}, "
            f"diameter {roads.component_diameter(depot):7.1f} km | "
            f"depot->site {'OK' if reachable else 'CUT OFF'}"
        )

    print("\nAll queries above are O(lg n) against the live structure --")
    print("the RC-tree augmentations of Section 2.2 [3], maintained by the")
    print("same change propagation that powers Algorithm 2.")


if __name__ == "__main__":
    main()
