package core

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
)

// Shard keys for the cluster router.
//
// The component decomposition (partition.go) already proves that connected
// components of the job×site demand graph are independent sub-problems, so
// component identity is the natural shard key. Components are not stable
// under churn — a bridging job merges two of them — so the router shards by
// the *sites* a job touches (site ownership is the transitive closure of
// component membership) and uses DemandSites/ShardKey/ShardOf to place jobs
// whose sites are not yet owned by any shard.

// DemandSites returns the ascending site indices where demand is positive:
// the job's footprint, and the atom of shard-placement decisions.
func DemandSites(demand []float64) []int {
	var sites []int
	for s, d := range demand {
		if d > 0 {
			sites = append(sites, s)
		}
	}
	return sites
}

// ShardKey returns a stable shard key for a job footprint: an FNV-1a hash
// of the smallest touched site index. ok is false when the footprint is
// empty (a zero-demand job belongs to no component and may be placed
// anywhere).
func ShardKey(sites []int) (key uint64, ok bool) {
	if len(sites) == 0 {
		return 0, false
	}
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(slices.Min(sites))))
	return h.Sum64(), true
}

// ShardOf maps a shard key onto one of n shards.
func ShardOf(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(key % uint64(n))
}
