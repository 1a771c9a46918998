//go:build !amd64

package vcodec

// blockCoder is encodeBlockRow's block-coding stage for one quantizer step:
// load a block, then code it against a prediction into a candidate.
type blockCoder struct {
	qstep           int
	cur, res, coefs [64]int32
}

func newBlockCoder(qstep int) blockCoder { return blockCoder{qstep: qstep} }

// load makes the 8×8 block of src at (x0,y0) the one the next inter and
// intra calls code.
func (c *blockCoder) load(src *plane, x0, y0 int) { loadBlock(src, x0, y0, &c.cur) }

// inter codes the loaded block against pred's block at (px,py) with the
// dead-zone quantizer.
func (c *blockCoder) inter(pred *plane, px, py int, out *candidate) {
	loadBlock(pred, px, py, &c.res)
	for i := range c.res {
		c.res[i] = c.cur[i] - c.res[i]
	}
	fdct8x8(&c.res, &c.coefs)
	quantizeDeadzone(&c.coefs, c.qstep, &out.scan)
}

// intra codes the loaded block against flat 128 with the rounding quantizer.
func (c *blockCoder) intra(out *candidate) {
	for i := range c.cur {
		c.res[i] = c.cur[i] - 128
	}
	fdct8x8(&c.res, &c.coefs)
	quantize(&c.coefs, c.qstep, &out.scan)
}

// candidate is one way of coding a block: its levels in zigzag scan order.
type candidate struct {
	scan [64]int32
}

func (c *candidate) cost() int { return codeCost(&c.scan) }

// levels returns the levels in zigzag scan order.
func (c *candidate) levels() *[64]int32 { return &c.scan }

// nonzeroMask returns the bits i for which levels[i] != 0: the pairs
// writeLevels walks.
func nonzeroMask(levels *[64]int32) uint64 {
	var nz uint64
	for i, l := range levels {
		nz |= uint64(uint32(l|-l)>>31) << i
	}
	return nz
}
