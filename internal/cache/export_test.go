package cache

// Flush invalidates every block; dirty blocks count writebacks. The cache
// is empty afterwards, as New made it, statistics aside; way arrays it has
// made are cleared and kept for the next fill. The recency-list tests hold
// an emptied cache to the choices of a fresh one with it.
func (c *Cache) Flush() {
	for _, d := range c.dirty {
		if d {
			c.stats.WriteBackBytes += c.blockBytes
		}
	}
	clear(c.tags)
	clear(c.dirty)
	clear(c.next)
	clear(c.prev)
	clear(c.head)
}
