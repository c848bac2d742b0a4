package arch

// AccessResult describes the outcome of one word access as it propagated
// through the hierarchy: the shape the tests check the flat engine and the
// reference model against.
type AccessResult struct {
	// HitLevel is the 1-based level that hit (1 = the cache accessed); 0
	// means every level missed and the access went to memory.
	HitLevel int
	// Latency is the summed hit latency of every level probed, in cycles.
	Latency int
	// MemoryBytes is the number of bytes moved from memory (one line per
	// last-level miss).
	MemoryBytes int
}

// access drives one word access through c's hierarchy with AccessLine and
// adds up the latency of every level it probed from Config().LatencyCycles.
func access(c *Cache, addr uint64, write bool) AccessResult {
	res := AccessResult{HitLevel: c.AccessLine(addr, write)}
	lvl := c
	for i := 1; ; i++ {
		res.Latency += lvl.Config().LatencyCycles
		if i == res.HitLevel {
			return res
		}
		if lvl.next == nil {
			res.MemoryBytes = lvl.Config().LineBytes
			return res
		}
		lvl = lvl.next
	}
}
