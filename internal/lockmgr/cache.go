package lockmgr

// lockCache is a transaction's private map from LockID to its request on
// that lock: a small open-addressed table (linear probing, at most half full)
// indexed by the hash Lock has already computed, recycled with its Owner.
type lockCache struct {
	slots []*Request // length is a power of two
	n     int        // slots taken, dropped ones included
}

// dropped stands in for a request retired mid-transaction (drop), so that
// probes continue past its slot until the next reset.
var dropped Request

// slot returns the slot holding the owner's request for id or, if there is
// none, the empty slot where it belongs. The table must not be empty.
//
//slint:hotpath
func (c *lockCache) slot(id LockID, hash uint64) **Request {
	for i, mask := hash, uint64(len(c.slots)-1); ; i++ {
		p := &c.slots[i&mask]
		if r := *p; r == nil || r != &dropped && r.id == id {
			return p
		}
	}
}

// find returns the owner's request for id, or nil.
//
//slint:hotpath
func (c *lockCache) find(id LockID, hash uint64) *Request {
	if len(c.slots) == 0 {
		return nil
	}
	return *c.slot(id, hash)
}

// drop forgets the owner's request for id, which must be in the cache.
func (c *lockCache) drop(id LockID, hash uint64) { *c.slot(id, hash) = &dropped }

// full reports whether one more put could fill the table beyond half.
func (c *lockCache) full() bool { return 2*(c.n+1) > len(c.slots) }

// put records req under its id, replacing the owner's previous entry for it
// if there is one. The caller has checked !full().
//
//slint:hotpath
func (c *lockCache) put(req *Request) {
	p := c.slot(req.id, req.head.hash)
	if *p == nil {
		c.n++
	}
	*p = req
}

// grow doubles the table (from a minimum of 32 slots), keeping its entries.
func (c *lockCache) grow() {
	old := c.slots
	c.slots, c.n = make([]*Request, max(32, 2*len(old))), 0
	for _, r := range old {
		if r != nil && r != &dropped {
			c.put(r)
		}
	}
}

// reset empties the cache for the owner's next transaction, letting go of a
// table some huge transaction has grown.
func (c *lockCache) reset() {
	if c.n = 0; len(c.slots) > 1<<10 {
		c.slots = nil
	}
	clear(c.slots)
}
