package vcodec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/media/raster"
)

// FrameType distinguishes intra frames (random-access points) from
// predicted frames.
type FrameType uint8

// Frame types.
const (
	IFrame FrameType = 0 // self-contained; decoding can start here
	PFrame FrameType = 1 // predicted from the previous frame
)

// String returns "I" or "P".
func (t FrameType) String() string {
	if t == IFrame {
		return "I"
	}
	return "P"
}

// Block coding modes inside P-frames. A block row's modes lead its chunk as
// a map of 2 bits a block (modeMapBytes).
const (
	modeSkip   = 0 // copy the co-located reference block
	modeIntra  = 1 // DCT-coded samples (also the only mode in I-frames)
	modeMC     = 2 // motion vector + DCT-coded residual
	modeVector = 3 // motion vector alone: copy the displaced reference block
)

const magic = "TKV2"

// modeMapBytes is the size of the mode map of a block row of the given
// number of blocks: block bx's mode is bits 2·(bx&3) and up of byte bx>>2,
// and the bits past the last block are zero.
func modeMapBytes(blocks int) int { return (blocks + 3) / 4 }

// maxDim bounds frame dimensions. The decoder rejects larger headers as
// corrupt, so the encoder must refuse to produce them.
const maxDim = 1 << 14

// Config parameterizes an Encoder.
type Config struct {
	Width, Height int
	QStep         int // quantizer step; larger = smaller & worse. Sane range 2..32.
	GOP           int // I-frame interval; every GOP-th frame is intra. >= 1.
	SearchRange   int // motion search radius in pixels (0..7). 0 disables MC.
}

func (c Config) validate() error {
	if c.Width <= 0 || c.Height <= 0 || c.Width > maxDim || c.Height > maxDim {
		return fmt.Errorf("vcodec: invalid dimensions %dx%d (max %d)", c.Width, c.Height, maxDim)
	}
	if c.QStep < 1 || c.QStep > 128 {
		return fmt.Errorf("vcodec: qstep %d out of range [1,128]", c.QStep)
	}
	if c.GOP < 1 {
		return fmt.Errorf("vcodec: GOP %d must be >= 1", c.GOP)
	}
	if c.SearchRange < 0 || c.SearchRange > 7 {
		return fmt.Errorf("vcodec: search range %d out of range [0,7]", c.SearchRange)
	}
	return nil
}

// Packet is one encoded frame.
type Packet struct {
	Type  FrameType
	Index int // frame number in encode order
	Data  []byte
}

// LadderEncoder compresses one sequence of equally-sized frames at several
// quantizer steps in a single pass. Everything that depends on the source
// frame alone is done once per frame for all rungs: the conversion to YCbCr,
// and per block its rows packed for the motion search and its intra
// transform (sourceRow). The frame is coded one block row at a time, every
// rung in turn, so a block's shared work is still at hand when the next rung
// needs it. A rung is its quantizer step, its block coder (the quantizer
// tables, built once), its reference/reconstruction double buffer and the
// block rows it has coded so far this frame. All of it is allocated at
// construction, so the steady-state Encode path allocates nothing when the
// caller recycles the payload buffers. Not safe for concurrent use.
//
// The motion search is done once per block too. The lead rung, the finest
// (the smallest quantizer step, the first among equals), codes each block
// row first with the full search, and its packets are those a one-rung
// encoder at its step makes. Every other rung only refines the lead's vector
// for the block (motionRefine), so its bytes depend on its own step and the
// lead's, not on the order the steps are listed in.
type LadderEncoder struct {
	cfg    Config    // QStep is unused: every rung carries its own
	img    *ycbcr    // current frame in YCbCr, shared by every rung
	src    sourceRow // the block row every rung codes next
	rungs  []rung
	lead   int // index of the rung that searches in full
	hasRef bool
	count  int // frames coded since construction or Reset; rungs advance in lockstep
}

// rung is the per-quantizer state of a LadderEncoder.
type rung struct {
	qstep int
	coder blockCoder
	recon *ycbcr     // reconstruction target for the current frame
	ref   *ycbcr     // previous reconstruction (what this rung's decoder will see)
	body  byteWriter // this frame's block rows, every plane's, in bitstream order
	ends  []int      // ends[i] is where block row i (counted over all planes) ends in body
}

// NewLadderEncoder returns an encoder that codes every frame once per entry
// of qsteps, in that order; cfg.QStep is ignored.
func NewLadderEncoder(cfg Config, qsteps []int) (*LadderEncoder, error) {
	if len(qsteps) == 0 {
		return nil, fmt.Errorf("vcodec: ladder encoder needs at least one quantizer step")
	}
	for _, q := range qsteps {
		cfg.QStep = q
		if err := cfg.validate(); err != nil {
			return nil, err
		}
	}
	cfg.QStep = 0
	e := &LadderEncoder{cfg: cfg, img: newYCbCr(cfg.Width, cfg.Height)}
	e.src = newSourceRow(e.img.y.w)
	rows := 0
	for _, p := range e.img.planes() {
		rows += p.h / blockSize
	}
	e.rungs = make([]rung, len(qsteps))
	for k, q := range qsteps {
		if q < qsteps[e.lead] {
			e.lead = k
		}
		e.rungs[k] = rung{
			qstep: q,
			coder: newBlockCoder(q),
			recon: newYCbCr(cfg.Width, cfg.Height),
			ref:   newYCbCr(cfg.Width, cfg.Height),
			ends:  make([]int, rows),
		}
	}
	return e, nil
}

// Reset drops the reference frames so the next frame becomes an I-frame.
func (e *LadderEncoder) Reset() {
	e.hasRef = false
	e.count = 0
}

// Encode compresses the next frame at every rung, leaving rung k's packet in
// pkts[k] (one slot per quantizer step the ladder was built with). Frame
// type is chosen by the GOP setting and is the same on every rung; the first
// frame is always intra. Each payload is appended to pkts[k].Data[:0], so a
// caller that passes the same slice every frame recycles the payload buffers
// and must copy out what has to outlive the next call.
func (e *LadderEncoder) Encode(f *raster.Frame, pkts []Packet) error {
	if f.W != e.cfg.Width || f.H != e.cfg.Height {
		return fmt.Errorf("vcodec: frame size %dx%d does not match config %dx%d",
			f.W, f.H, e.cfg.Width, e.cfg.Height)
	}
	if len(pkts) != len(e.rungs) {
		return fmt.Errorf("vcodec: %d packet slots for a %d-rung ladder", len(pkts), len(e.rungs))
	}
	ft := PFrame
	if !e.hasRef || e.count%e.cfg.GOP == 0 {
		ft = IFrame
	}
	e.img.fromFrame(f)
	for k := range e.rungs {
		e.rungs[k].body.reset()
	}
	row := 0
	for p, src := range e.img.planes() {
		searchRange := e.cfg.SearchRange
		if p > 0 {
			searchRange /= 2 // chroma is subsampled 2×
		}
		for by := range src.h / blockSize {
			e.src.start(src, by)
			e.codeRow(e.lead, ft, p, row, searchRange) // the lead first: the others refine its vectors
			for k := range e.rungs {
				if k != e.lead {
					e.codeRow(k, ft, p, row, searchRange)
				}
			}
			row++
		}
	}
	for k := range e.rungs {
		rg := &e.rungs[k]
		w := byteWriter{buf: pkts[k].Data[:0]}
		w.bytes([]byte(magic))
		w.u8(uint8(ft))
		w.uvarint(uint64(e.img.w))
		w.uvarint(uint64(e.img.h))
		w.uvarint(uint64(rg.qstep))
		w.u8(uint8(e.cfg.SearchRange))
		rg.writePlanes(&w)
		// The fresh reconstruction becomes the reference; the old reference
		// becomes next frame's reconstruction target (double buffer).
		rg.ref, rg.recon = rg.recon, rg.ref
		pkts[k] = Packet{Type: ft, Index: e.count, Data: w.buf}
	}
	e.hasRef = true
	e.count++
	return nil
}

// codeRow codes the source row, which is block row row of the frame
// counted over all planes, at rung k.
func (e *LadderEncoder) codeRow(k int, ft FrameType, p, row, searchRange int) {
	rg := &e.rungs[k]
	var ref *plane
	if ft == PFrame {
		ref = rg.ref.planes()[p]
	}
	encodeBlockRow(&rg.body, &e.src, ref, rg.recon.planes()[p], rg.qstep, &rg.coder, searchRange, k == e.lead)
	rg.ends[row] = len(rg.body.buf)
}

// writePlanes writes the rung's coded planes, each as its independent block
// rows behind a row-length table (part of the bitstream: each row is its own
// chunk, checked for trailing bytes on decode).
func (rg *rung) writePlanes(w *byteWriter) {
	ends := rg.ends
	start := 0
	for _, p := range rg.recon.planes() {
		rows := ends[:p.h/blockSize]
		ends = ends[len(rows):]
		w.uvarint(uint64(len(rows)))
		from := start
		for _, end := range rows {
			w.uvarint(uint64(end - from))
			from = end
		}
		w.bytes(rg.body.buf[start:from])
		start = from
	}
}

// sourceRow is the block row every rung codes next, with the work on its
// blocks that depends on the source alone: a block's rows packed for the
// motion search and its intra transform. Each is done when the first rung
// needs it and kept for the rest, so a frame pays it at most once per
// block however many rungs code the block, and not at all for a block every
// rung skips. A block also carries the lead rung's motion vector for the
// other rungs to refine: (0,0) until the lead searches the block, so a block
// the lead codes without a search (intra, or a perfect skip) lends (0,0).
type sourceRow struct {
	src    *plane
	y0     int
	blocks []sourceBlock // the row's blocks; the backing array fits the widest plane
}

type sourceBlock struct {
	packed, transformed bool
	mvx, mvy            int // the lead rung's motion vector
	rows                packedBlock
	intra               intraCoefs
}

// newSourceRow returns a sourceRow for planes up to w samples wide.
func newSourceRow(w int) sourceRow {
	return sourceRow{blocks: make([]sourceBlock, w/blockSize)}
}

// start makes block row by of src the current row, with nothing done on
// any of its blocks yet.
func (s *sourceRow) start(src *plane, by int) {
	s.src, s.y0 = src, by*blockSize
	s.blocks = s.blocks[:src.w/blockSize]
	for i := range s.blocks {
		b := &s.blocks[i]
		b.packed, b.transformed, b.mvx, b.mvy = false, false, 0, 0
	}
}

// packed returns block bx's rows packed for the motion search.
func (s *sourceRow) packed(bx int) *packedBlock {
	b := &s.blocks[bx]
	if !b.packed {
		b.rows.load(s.src, bx*blockSize, s.y0)
		b.packed = true
	}
	return &b.rows
}

// intra returns block bx's intra transform.
func (s *sourceRow) intra(bx int) *intraCoefs {
	b := &s.blocks[bx]
	if !b.transformed {
		intraTransform(s.src, bx*blockSize, s.y0, &b.intra)
		b.transformed = true
	}
	return &b.intra
}

// Encoder compresses a sequence of equally-sized frames at one quantizer
// step: the one-rung case of a LadderEncoder, returning each packet in a
// payload the caller owns. Not safe for concurrent use.
type Encoder struct {
	ladder *LadderEncoder
	prevSz int // previous packet size, used to presize the next payload
}

// NewEncoder returns an encoder for the given configuration.
func NewEncoder(cfg Config) (*Encoder, error) {
	l, err := NewLadderEncoder(cfg, []int{cfg.QStep})
	if err != nil {
		return nil, err
	}
	return &Encoder{ladder: l}, nil
}

// Encode compresses the next frame. Frame type is chosen by the GOP setting;
// the first frame is always intra.
func (e *Encoder) Encode(f *raster.Frame) (Packet, error) {
	pkts := [1]Packet{{Data: make([]byte, 0, e.prevSz+e.prevSz/4+64)}}
	if err := e.ladder.Encode(f, pkts[:]); err != nil {
		return Packet{}, err
	}
	e.prevSz = len(pkts[0].Data)
	return pkts[0], nil
}

// Reset drops the reference frame so the next frame becomes an I-frame.
func (e *Encoder) Reset() { e.ladder.Reset() }

// encodeBlockRow codes the blocks of the source row at one rung, writing
// reconstructed samples into recon (its rows are disjoint across calls).
//
// A coded block's candidates come from blockCoder, the block-coding stage:
// the residual against a prediction, fdct8x8, quantize (intra) or
// quantizeDeadzone (motion-compensated), codeCost. It has two
// implementations chosen by the build target, SSE2 on amd64 (dct_amd64.s)
// and those Go functions everywhere else (dct_other.go); both produce the
// Go functions' levels, so the mode decisions and the bytes are the same.
// The intra candidate's transform is the row's, shared by every rung; only
// its quantization is the rung's. The lead rung searches motion in full and
// leaves its vector in the row; every other rung refines that vector.
func encodeBlockRow(w *byteWriter, row *sourceRow, ref, recon *plane, qstep int, coder *blockCoder, searchRange int, lead bool) {
	var mc, in candidate
	var blk coefBlock
	src, y0 := row.src, row.y0
	// The row's mode map, zeroed (every block a skip) and filled in as its
	// blocks are coded; their payloads follow it.
	modes := len(w.buf)
	for range modeMapBytes(len(row.blocks)) {
		w.u8(0)
	}
	for bx := range row.blocks {
		x0 := bx * blockSize
		// Perfect skip first: if the co-located reference block is
		// identical, the residual is zero at any quantizer and neither the
		// motion search nor either DCT needs to run.
		if ref != nil && sameBlock(src, ref, x0, y0) {
			copyBlock(ref, x0, y0, recon, x0, y0)
			continue
		}
		at, shift := modes+bx>>2, 2*(bx&3) // block bx's bits in the map, by index: w.buf grows
		if ref == nil {
			// I-frame (or I-coded plane): intra is the only mode.
			coder.intra(row.intra(bx), &in)
			w.buf[at] |= modeIntra << shift
			codeLevels(w, in.levels(), qstep, &blk)
			reconstruct(&blk, nil, 0, 0, recon, x0, y0)
			continue
		}
		// Motion search (includes the (0,0) candidate even when range is 0).
		var mvx, mvy int
		if b := &row.blocks[bx]; lead {
			mvx, mvy = motionSearch(row.packed(bx), ref, x0, y0, searchRange)
			b.mvx, b.mvy = mvx, mvy
		} else {
			mvx, mvy = motionRefine(row.packed(bx), ref, x0, y0, searchRange, b.mvx, b.mvy)
		}
		coder.inter(src, x0, y0, ref, x0+mvx, y0+mvy, &mc)
		mcCost := mc.cost() + 1 // +1 byte for the motion vector
		if mcCost == emptyCost+1 && mvx == 0 && mvy == 0 {
			// Residual vanishes at this quantizer: perfect skip.
			copyBlock(ref, x0, y0, recon, x0, y0)
			continue
		}
		// Intra candidate, only computed once skip is off the table.
		coder.intra(row.intra(bx), &in)
		if mcCost <= in.cost() {
			w.u8(packMV(mvx, mvy))
			if mcCost == emptyCost+1 {
				// Residual vanishes at this quantizer: the vector alone.
				w.buf[at] |= modeVector << shift
				copyBlock(ref, x0+mvx, y0+mvy, recon, x0, y0)
				continue
			}
			w.buf[at] |= modeMC << shift
			codeLevels(w, mc.levels(), qstep, &blk)
			reconstruct(&blk, ref, x0+mvx, y0+mvy, recon, x0, y0)
			continue
		}
		w.buf[at] |= modeIntra << shift
		codeLevels(w, in.levels(), qstep, &blk)
		reconstruct(&blk, nil, 0, 0, recon, x0, y0)
	}
}

// codeLevels writes a coded block's levels and reads the bytes just written
// back into blk with the decoder's own reader, for reconstruct: the encoder's
// reference is what a decoder makes of the stream by construction, not by a
// second dequantizer kept in step with the first.
func codeLevels(w *byteWriter, levels *[64]int32, qstep int, blk *coefBlock) {
	start := len(w.buf)
	writeLevels(w, levels)
	dcDiv, acDiv := quantDivisors(qstep)
	if err := blk.read(&byteReader{buf: w.buf[start:]}, dcDiv, acDiv); err != nil {
		panic("vcodec: encoder wrote a block its own reader rejects: " + err.Error())
	}
}

// The reconstruction stage is reconstruct and copyBlock. reconstruct writes
// the 8×8 block at (x0,y0) of dst from its coefficients and its prediction:
// the block of pred at (px,py), or flat 128 when pred is nil (intra). It is
// the one block reconstruction in the codec — the decoder runs it on what it
// reads, the encoder on what it wrote — and copyBlock is the one block copy,
// which skip blocks and coefficient-free motion-compensated blocks share.
// Both have two implementations chosen by the build target: SSE2 on amd64
// (recon_amd64.s) and the Go functions below everywhere else
// (recon_other.go), which the tests also hold the assembly to.

// reconstructPortable is reconstruct in Go. A block with no coefficients is
// its prediction, so the transform is skipped outright; that is a third or
// more of all blocks from the second ladder rung down.
func reconstructPortable(blk *coefBlock, pred *plane, px, py int, dst *plane, x0, y0 int) {
	if blk.cols == 0 && pred != nil {
		copyBlockPortable(pred, px, py, dst, x0, y0)
		return
	}
	var rec [64]int32
	blk.idct(&rec)
	// Rows as fixed-size arrays: one slice check a row, none per sample.
	for r := 0; r < blockSize; r++ {
		res := (*[blockSize]int32)(rec[r*blockSize:])
		out := (*[blockSize]uint8)(dst.pix[(y0+r)*dst.w+x0:])
		if pred == nil {
			for k, v := range res {
				out[k] = clamp255(v + 128)
			}
			continue
		}
		from := (*[blockSize]uint8)(pred.pix[(py+r)*pred.w+px:])
		for k, v := range res {
			out[k] = clamp255(int32(from[k]) + v)
		}
	}
}

// word loads the eight samples of row y starting at column x0 as one
// little-endian 64-bit word.
func (p *plane) word(x0, y int) uint64 {
	return binary.LittleEndian.Uint64(p.pix[y*p.w+x0:])
}

// sameBlock reports whether the 8×8 blocks at (x0,y0) of a and b are equal,
// a row per comparison with early exit.
func sameBlock(a, b *plane, x0, y0 int) bool {
	for r := 0; r < blockSize; r++ {
		if a.word(x0, y0+r) != b.word(x0, y0+r) {
			return false
		}
	}
	return true
}

// The motion search is a full search: every in-bounds offset within ±r gets
// the sum of absolute differences (SAD) of the current block against the
// reference block there. The SADs of the whole window of candidates come
// from one sadWindow call, which has two implementations chosen by the build
// target: on amd64 an SSE2 leaf (sad_amd64.s), elsewhere sadWindowPortable
// below, which is also what the tests hold the assembly to.
//
// The portable path takes a block row eight samples at a time: once per run
// the current block's row bytes are spread over the 16-bit lanes of two
// 64-bit words (even samples in one, odd in the other) so a lane has room for
// a biased difference and for the sum of a whole candidate.
const (
	laneLow  = 0x00FF00FF00FF00FF // the sample byte of every lane
	laneOne  = 0x0001000100010001
	laneBias = 0x0100010001000100 // 256 per lane: keeps a−b positive
)

// packedBlock is the current block read once for all candidates of a motion
// search — its eight row words as they lie in the plane — and the window of
// SADs the search fills, kept beside them so that no search zeroes a fresh
// one.
type packedBlock struct {
	rows [blockSize]uint64
	sads sadGrid
}

func (b *packedBlock) load(p *plane, x0, y0 int) {
	for r := 0; r < blockSize; r++ {
		b.rows[r] = p.word(x0, y0+r)
	}
}

// packRow spreads the eight samples of row word w over two lane words, the
// even samples and the odd, with laneBias added.
func packRow(w uint64) (even, odd uint64) {
	return w&laneLow | laneBias, w>>8&laneLow | laneBias
}

// absDiffLanes returns |a−b| in each 16-bit lane, for a holding samples with
// laneBias added and b holding bare samples. Per lane d = 256+a−b lies in
// 1…511, so no borrow crosses a lane and bit 8 is the sign: where it is set
// the low byte is a−b, where it is clear 256−d = (d^0xFF)+1 is b−a.
func absDiffLanes(a, b uint64) uint64 {
	d := a - b
	neg := ^d >> 8 & laneOne
	return (d&laneLow ^ (neg<<8 - neg)) + neg
}

// sadRow returns, spread over four lanes that still have to be summed, the
// absolute differences of one row: the current row's packed words against
// the eight reference samples in ref.
func sadRow(even, odd, ref uint64) uint64 {
	return absDiffLanes(even, ref&laneLow) + absDiffLanes(odd, ref>>8&laneLow)
}

// foldLanes sums the four 16-bit lanes of x with one multiply. The sum must
// fit 16 bits, which a whole 8×8 block of sadRow results does: 64·255 =
// 16320, at most 16·255 of it in any one lane.
func foldLanes(x uint64) int32 {
	return int32(x * laneOne >> 48)
}

// sadBlock returns the sum of absolute differences between the current
// block, its rows packed by packRow, and the 8×8 reference block whose
// top-left sample is pix[0] and whose rows are stride apart. It is
// deliberately a leaf of its own: written into the candidate loop, the lane
// constants and the accumulator spill to the stack on every row.
func sadBlock(even, odd *[blockSize]uint64, pix []uint8, stride int) int32 {
	var lanes uint64
	for row, o := 0, 0; row < blockSize; row, o = row+1, o+stride {
		lanes += sadRow(even[row], odd[row], binary.LittleEndian.Uint64(pix[o:o+8:o+8]))
	}
	return foldLanes(lanes)
}

// sadRunPortable fills out[i] with the SAD of the current block against the
// reference block whose top-left sample is pix[i] and whose rows are stride
// apart: one row of horizontally adjacent candidates.
func sadRunPortable(cur *packedBlock, pix []uint8, stride int, out []int32) {
	var even, odd [blockSize]uint64
	for r, w := range cur.rows {
		even[r], odd[r] = packRow(w)
	}
	for i := range out {
		out[i] = sadBlock(&even, &odd, pix[i:], stride)
	}
}

// sadWindowPortable fills out, row-major in rows of nx, with the SADs of the
// current block against the reference blocks at pix[dy*stride+dx:], one
// sadRunPortable per row of the window, and returns the (dx, dy) of the
// smallest, the first in row-major order among equals.
func sadWindowPortable(cur *packedBlock, pix []uint8, stride, nx int, out []int32) (bx, by int) {
	best := int32(1<<31 - 1)
	for dy := 0; dy*nx < len(out); dy++ {
		run := out[dy*nx : (dy+1)*nx]
		sadRunPortable(cur, pix[dy*stride:], stride, run)
		for dx, sad := range run {
			if sad < best {
				best, bx, by = sad, dx, dy
			}
		}
	}
	return bx, by
}

// sadGrid holds one motion search's window of SADs: (2r+1)² at most, r ≤ 7
// (Config.validate).
type sadGrid [(2*7 + 1) * (2*7 + 1)]int32

// searchWindow returns the offsets within ±r that keep the reference block
// for the block at (x0,y0) inside ref, as the first offset and the size of a
// window: they are one interval a side, the dx interval is the same for
// every dy, and the zero vector is in both.
func searchWindow(ref *plane, x0, y0, r int) (dx0, dy0, nx, ny int) {
	dx0, dy0 = max(-r, -x0), max(-r, -y0)
	return dx0, dy0, min(r, ref.w-blockSize-x0) - dx0 + 1, min(r, ref.h-blockSize-y0) - dy0 + 1
}

// motionSearch finds the full-pixel offset within ±r minimizing SAD against
// the reference, constrained so the reference block stays in bounds.
// Candidates are visited row-major from (−r,−r), the zero vector gets a −4
// bias to avoid jitter on ties, and otherwise the first strictly smaller SAD
// wins. There is no pruning: on footage with sensor noise every candidate's
// SAD is alike, so a running "already worse than best" test only fires in a
// candidate's last rows and costs more than it saves (EXPERIMENTS.md E22).
func motionSearch(cur *packedBlock, ref *plane, x0, y0, r int) (int, int) {
	if r == 0 {
		return 0, 0
	}
	dx0, dy0, nx, ny := searchWindow(ref, x0, y0, r)
	win := cur.sads[:nx*ny]
	bx, by := sadWindow(cur, ref.pix[(y0+dy0)*ref.w+x0+dx0:], ref.w, nx, win)
	// The zero vector's bias, applied to the unbiased winner: it takes over
	// when its biased SAD is smaller, or equal and earlier in the scan.
	zx, zy := -dx0, -dy0
	if z, best := win[zy*nx+zx]-4, win[by*nx+bx]; z < best || z == best && zy*nx+zx < by*nx+bx {
		bx, by = zx, zy
	}
	return dx0 + bx, dy0 + by
}

// motionRefine is the motion search of a rung below the lead, given the
// lead's vector (lx,ly) for the block, which lies within ±r and keeps the
// block inside ref. Its candidates are the 3×3 window around (lx,ly),
// clipped to ±r and to the plane, and the zero vector; the rule is
// motionSearch's restricted to them: the first smallest SAD of the window in
// row-major order wins, and the zero vector, with its −4 bias, takes over
// when that is smaller, or equal and earlier in the scan. The window is one
// sadWindow call, and the zero vector, when it falls outside, a 1×1 call.
func motionRefine(cur *packedBlock, ref *plane, x0, y0, r, lx, ly int) (int, int) {
	if r == 0 {
		return 0, 0
	}
	sx0, sy0, snx, sny := searchWindow(ref, x0, y0, r)
	dx0, dy0 := max(lx-1, sx0), max(ly-1, sy0)
	nx, ny := min(lx+1, sx0+snx-1)-dx0+1, min(ly+1, sy0+sny-1)-dy0+1
	win := cur.sads[:nx*ny]
	bx, by := sadWindow(cur, ref.pix[(y0+dy0)*ref.w+x0+dx0:], ref.w, nx, win)
	best := win[by*nx+bx]
	bx, by = dx0+bx, dy0+by
	var z int32
	if zx, zy := -dx0, -dy0; zx >= 0 && zx < nx && zy >= 0 && zy < ny {
		z = win[zy*nx+zx]
	} else {
		zero := cur.sads[nx*ny : nx*ny+1]
		sadWindow(cur, ref.pix[y0*ref.w+x0:], ref.w, 1, zero)
		z = zero[0]
	}
	if z -= 4; z < best || z == best && (by > 0 || by == 0 && bx > 0) {
		return 0, 0
	}
	return bx, by
}

// loadBlock widens the 8×8 block with top-left corner (x0,y0) into dst, row
// by row.
func loadBlock(p *plane, x0, y0 int, dst *[64]int32) {
	for r := 0; r < blockSize; r++ {
		row := p.row(x0, y0+r, blockSize)
		out := dst[r*blockSize : r*blockSize+blockSize]
		for k, v := range row {
			out[k] = int32(v)
		}
	}
}

// copyBlockPortable is copyBlock in Go: the 8×8 block at (sx,sy) of src to
// (x0,y0) of dst, a row per 64-bit word.
func copyBlockPortable(src *plane, sx, sy int, dst *plane, x0, y0 int) {
	for r := 0; r < blockSize; r++ {
		binary.LittleEndian.PutUint64(dst.pix[(y0+r)*dst.w+x0:], src.word(sx, sy+r))
	}
}

// codeCost approximates the byte cost of coding the level set — enough to
// drive the intra-vs-MC mode decision.
func codeCost(levels *[64]int32) int {
	cost := 2 // mode byte + pair count
	for _, l := range levels {
		if l != 0 {
			cost += 2
			if l > 63 || l < -63 {
				cost++
			}
		}
	}
	return cost
}

// emptyCost is codeCost of an all-zero level set: the mode byte and the pair
// count, and the only level set that costs so little.
const emptyCost = 2

func packMV(dx, dy int) uint8 {
	return uint8((dx+8)<<4 | (dy + 8))
}

func unpackMV(b uint8) (int, int) {
	return int(b>>4) - 8, int(b&0xF) - 8
}

// Decoder decompresses TKV2 packets. Like the Encoder it is a persistent
// pipeline: the reference/target image double buffer and the row scratch
// live for the decoder's lifetime, so steady-state DecodeInto allocates
// nothing. The first packet a decoder sees must be an I-frame. Not safe for
// concurrent use.
type Decoder struct {
	ref     *ycbcr   // last fully decoded image (nil before the first I-frame)
	free    []*ycbcr // recycled decode targets (at most two circulate)
	lengths []int
	chunks  [][]byte
	blend   []uint16 // toFrameInto's row scratch
}

// NewDecoder returns a decoder with no reference state.
func NewDecoder() *Decoder { return &Decoder{} }

// Reset drops decoder state (e.g. before seeking to a new I-frame). The
// image buffers are kept for recycling, so seek-heavy playback does not
// re-allocate per seek.
func (d *Decoder) Reset() {
	d.recycle(d.ref)
	d.ref = nil
}

// takeBuffer returns a recycled image of the requested frame size, or
// allocates one.
func (d *Decoder) takeBuffer(w, h int) *ycbcr {
	for i, b := range d.free {
		if b.w == w && b.h == h {
			d.free[i] = d.free[len(d.free)-1]
			d.free = d.free[:len(d.free)-1]
			return b
		}
	}
	return newYCbCr(w, h)
}

// recycle returns an image buffer to the free list. Only two buffers ever
// circulate per stream size; stale sizes are dropped oldest-first.
func (d *Decoder) recycle(b *ycbcr) {
	if b == nil {
		return
	}
	if len(d.free) >= 2 {
		copy(d.free, d.free[1:])
		d.free = d.free[:len(d.free)-1]
	}
	d.free = append(d.free, b)
}

// Decode parses one packet and returns the reconstructed frame in a freshly
// allocated Frame. Steady-state consumers should prefer DecodeInto, which
// recycles the destination, or Advance when the pixels are not needed.
func (d *Decoder) Decode(data []byte) (*raster.Frame, error) {
	f := new(raster.Frame)
	if err := d.DecodeInto(f, data); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses one packet and writes the reconstructed frame into dst,
// resizing it if needed and reusing its pixel buffer when possible. With a
// persistent Decoder and a recycled dst, the steady-state path performs no
// allocations.
func (d *Decoder) DecodeInto(dst *raster.Frame, data []byte) error {
	if err := d.decode(data); err != nil {
		return err
	}
	d.blend = d.ref.toFrameInto(dst, d.blend)
	return nil
}

// Advance parses one packet, updating the decoder's reference state without
// converting to RGB. Roll-forward after a seek uses this: intermediate
// frames between the keyframe and the target are decoded but never
// presented, so their colorspace conversion would be wasted work.
func (d *Decoder) Advance(data []byte) error {
	return d.decode(data)
}

// decode parses a packet into the spare image buffer and, on success,
// promotes it to the reference. On error the previous reference is
// untouched.
func (d *Decoder) decode(data []byte) error {
	r := &byteReader{buf: data}
	mg, err := r.slice(4)
	if err != nil || string(mg) != magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ftb, err := r.u8()
	if err != nil {
		return err
	}
	ft := FrameType(ftb)
	if ft != IFrame && ft != PFrame {
		return fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, ftb)
	}
	wv, err := r.uvarint()
	if err != nil {
		return err
	}
	hv, err := r.uvarint()
	if err != nil {
		return err
	}
	qv, err := r.uvarint()
	if err != nil {
		return err
	}
	if _, err := r.u8(); err != nil { // search range (informational)
		return err
	}
	w, h, qstep := int(wv), int(hv), int(qv)
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim || qstep < 1 || qstep > 128 {
		return fmt.Errorf("%w: implausible header %dx%d q=%d", ErrCorrupt, w, h, qstep)
	}
	if ft == PFrame {
		if d.ref == nil {
			return fmt.Errorf("%w: P-frame without reference (decode must start at an I-frame)", ErrCorrupt)
		}
		if d.ref.w != w || d.ref.h != h {
			return fmt.Errorf("%w: P-frame size %dx%d mismatches reference %dx%d", ErrCorrupt, w, h, d.ref.w, d.ref.h)
		}
	}
	// The cheapest possible payload is a mode map per luma block row plus
	// the row-length tables; reject implausibly small packets *before*
	// allocating the image, so a 14-byte packet claiming 16384×16384 (which
	// needs 1 MiB of maps) cannot be used to drive gigabyte allocations.
	if minBytes := (padUp(h) / blockSize) * modeMapBytes(padUp(w)/blockSize); r.remaining() < minBytes {
		return fmt.Errorf("%w: %d payload bytes for a %dx%d frame (need >= %d)", ErrCorrupt, r.remaining(), w, h, minBytes)
	}
	img := d.takeBuffer(w, h)
	var refY, refCb, refCr *plane
	if ft == PFrame {
		refY, refCb, refCr = d.ref.y, d.ref.cb, d.ref.cr
	}
	if err := d.decodePlane(r, img.y, refY, qstep); err != nil {
		d.recycle(img)
		return fmt.Errorf("luma plane: %w", err)
	}
	if err := d.decodePlane(r, img.cb, refCb, qstep); err != nil {
		d.recycle(img)
		return fmt.Errorf("cb plane: %w", err)
	}
	if err := d.decodePlane(r, img.cr, refCr, qstep); err != nil {
		d.recycle(img)
		return fmt.Errorf("cr plane: %w", err)
	}
	// Promote: the old reference becomes a recycled target for later
	// decodes.
	d.recycle(d.ref)
	d.ref = img
	return nil
}

func (d *Decoder) decodePlane(r *byteReader, dst, ref *plane, qstep int) error {
	rowsV, err := r.uvarint()
	if err != nil {
		return err
	}
	rows := int(rowsV)
	if rows != dst.h/blockSize {
		return fmt.Errorf("%w: row count %d, want %d", ErrCorrupt, rows, dst.h/blockSize)
	}
	if cap(d.lengths) < rows {
		d.lengths = make([]int, rows)
		d.chunks = make([][]byte, rows)
	}
	lengths, chunks := d.lengths[:rows], d.chunks[:rows]
	for i := range lengths {
		lv, err := r.uvarint()
		if err != nil {
			return err
		}
		lengths[i] = int(lv)
	}
	for i := range chunks {
		c, err := r.slice(lengths[i])
		if err != nil {
			return err
		}
		chunks[i] = c
	}
	for by, c := range chunks {
		if err := decodeBlockRow(c, dst, ref, by, qstep); err != nil {
			return err
		}
	}
	return nil
}

func decodeBlockRow(chunk []byte, dst, ref *plane, by, qstep int) error {
	r := &byteReader{buf: chunk}
	blocks := dst.w / blockSize
	modes, err := r.slice(modeMapBytes(blocks))
	if err != nil {
		return err
	}
	// The map's last byte above the last block's bits: one packet a picture.
	if modes[len(modes)-1]>>(2*((blocks-1)&3)+2) != 0 {
		return fmt.Errorf("%w: nonzero padding in a mode map", ErrCorrupt)
	}
	var blk coefBlock
	dcDiv, acDiv := quantDivisors(qstep)
	y0 := by * blockSize
	for bx := range blocks {
		x0 := bx * blockSize
		mode := modes[bx>>2] >> (2 * (bx & 3)) & 3
		if mode == modeIntra {
			if err := blk.read(r, dcDiv, acDiv); err != nil {
				return err
			}
			reconstruct(&blk, nil, 0, 0, dst, x0, y0)
			continue
		}
		if ref == nil {
			return fmt.Errorf("%w: block mode %d in I-frame", ErrCorrupt, mode)
		}
		if mode == modeSkip {
			copyBlock(ref, x0, y0, dst, x0, y0)
			continue
		}
		mvb, err := r.u8()
		if err != nil {
			return err
		}
		mvx, mvy := unpackMV(mvb)
		if x0+mvx < 0 || x0+mvx+blockSize > ref.w || y0+mvy < 0 || y0+mvy+blockSize > ref.h {
			return fmt.Errorf("%w: motion vector (%d,%d) out of bounds", ErrCorrupt, mvx, mvy)
		}
		// A block that decodes to what a shorter mode makes is refused:
		// one packet a picture. (0,0) alone is a skip; a vector with no
		// residual is a vector-only block.
		if mode == modeVector {
			if mvb == packMV(0, 0) {
				return fmt.Errorf("%w: vector-only block with vector (0,0)", ErrCorrupt)
			}
			copyBlock(ref, x0+mvx, y0+mvy, dst, x0, y0)
			continue
		}
		if err := blk.read(r, dcDiv, acDiv); err != nil {
			return err
		}
		if blk.cols == 0 {
			return fmt.Errorf("%w: motion-compensated block with no residual", ErrCorrupt)
		}
		reconstruct(&blk, ref, x0+mvx, y0+mvy, dst, x0, y0)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in block row", ErrCorrupt, r.remaining())
	}
	return nil
}

// ParseHeader returns the frame type of an encoded packet without decoding
// it (the container uses this to build its seek index).
func ParseHeader(data []byte) (FrameType, error) {
	if len(data) < 5 || string(data[:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ft := FrameType(data[4])
	if ft != IFrame && ft != PFrame {
		return 0, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, data[4])
	}
	return ft, nil
}
