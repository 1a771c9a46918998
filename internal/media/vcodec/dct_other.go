//go:build !amd64

package vcodec

// blockCoder is encodeBlockRow's block-coding stage for one quantizer step:
// code a block against a prediction into a candidate.
type blockCoder struct {
	qstep           int
	cur, res, coefs [64]int32
}

func newBlockCoder(qstep int) blockCoder { return blockCoder{qstep: qstep} }

// inter codes src's block at (x0,y0) against pred's block at (px,py) with
// the dead-zone quantizer.
func (c *blockCoder) inter(src *plane, x0, y0 int, pred *plane, px, py int, out *candidate) {
	loadBlock(src, x0, y0, &c.cur)
	loadBlock(pred, px, py, &c.res)
	for i := range c.res {
		c.res[i] = c.cur[i] - c.res[i]
	}
	fdct8x8(&c.res, &c.coefs)
	quantizeDeadzone(&c.coefs, c.qstep, &out.scan)
}

// intra codes a block from its intra transform with the rounding quantizer.
func (c *blockCoder) intra(t *intraCoefs, out *candidate) {
	quantize(t, c.qstep, &out.scan)
}

// intraCoefs is a block's intra transform as fdct8x8 leaves it.
type intraCoefs = [64]int32

// intraTransform writes the transform of src's block at (x0,y0) against
// flat 128 into t: the part of an intra candidate no quantizer step changes.
func intraTransform(src *plane, x0, y0 int, t *intraCoefs) {
	var res [64]int32
	loadBlock(src, x0, y0, &res)
	for i := range res {
		res[i] -= 128
	}
	fdct8x8(&res, t)
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
