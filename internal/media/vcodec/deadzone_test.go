package vcodec

import (
	"sort"
	"testing"
)

// The encoder's dead-zone exit (deadZoneSAD): a motion-compensated candidate
// whose search SAD is under the bound is taken as the empty level set
// without its transform, so the bound must hold for every residual, not only
// for the footage the goldens encode.

// residualPlanes returns a block and a prediction whose difference is r:
// where r is positive it is in the block, where negative in the prediction.
func residualPlanes(r *[64]int32) (cur, pred *plane) {
	cur, pred = newPlane(blockSize, blockSize), newPlane(blockSize, blockSize)
	for i, v := range r {
		cur.pix[i], pred.pix[i] = uint8(max(v, 0)), uint8(max(-v, 0))
	}
	return cur, pred
}

// deadZoneEmpties reports whether residual r quantizes to all zeros at qstep
// with the dead-zone quantizer on both block-coding stages: the one the
// build runs (SSE2 on amd64) and the Go functions every other target runs.
func deadZoneEmpties(coder *blockCoder, qstep int, r *[64]int32) bool {
	var coefs, levels [64]int32
	fdct8x8(r, &coefs)
	quantizeDeadzone(&coefs, qstep, &levels)
	cur, pred := residualPlanes(r)
	var mc candidate
	coder.inter(cur, 0, 0, pred, 0, 0, &mc)
	return allZero(&levels) && allZero(mc.levels()) && mc.cost() == emptyCost
}

// spread lays a mass of sad over the 64 positions in the given order, each
// with the sign signs gives it and at most 255 in magnitude (a residual of
// two 8-bit samples): concentrated fills each position in turn, otherwise it
// is dealt out evenly, the first positions taking the remainder.
func spread(sad int32, order []int, signs *[64]int32, concentrated bool) (r [64]int32) {
	left := sad
	for k, i := range order {
		v := min(left, 255)
		if !concentrated {
			v = sad / 64
			if int32(k) < sad%64 {
				v++
			}
		}
		r[i] = v * signs[i]
		left -= v
	}
	return r
}

// TestDeadZoneExitIsExact re-derives deadZoneSAD's bound from fdctMatrix and
// holds every quantizer step 1…128 to it: the largest SAD the exit takes
// must be under the DC divisor (|DC| = |Σr| ≤ SAD) and under the AC bound's
// divisor, and the residuals that come nearest to a level at that SAD must
// quantize to nothing: for every coefficient its basis-signed pattern,
// concentrated on the largest weights and spread over all 64, both signs;
// every single impulse, both signs; and a residual of one sign, the DC's
// worst case, which is what keeps a level one SAD above the bound.
func TestDeadZoneExitIsExact(t *testing.T) {
	m := fdctMatrix()
	// w[k] is output k's largest weight in either pass.
	var w [blockSize]int64
	for k := range blockSize {
		for _, c := range m[k] {
			w[k] = max(w[k], int64(max(c, -c)))
		}
	}
	// The DC weighs every sample 2^constBits in both passes, so the DC is
	// the residual's sum, unrounded; the AC weights are at most the w the
	// bound's comment states.
	for n, c := range m[0] {
		if c != 1<<constBits {
			t.Errorf("fdctMatrix DC weight of sample %d is %d, want %d", n, c, 1<<constBits)
		}
	}
	if largest := max(w[1], w[2], w[3], w[4], w[5], w[6], w[7]); largest != 11363 {
		t.Errorf("largest fdctMatrix AC weight %d, deadZoneSAD's bound is stated for 11363", largest)
	}
	type pattern struct {
		name         string
		signs        [64]int32
		order        []int
		concentrated bool
	}
	var patterns []pattern
	ones := [64]int32{}
	byPosition := make([]int, 64)
	for i := range ones {
		ones[i], byPosition[i] = 1, i
	}
	negOnes := ones
	for i := range negOnes {
		negOnes[i] = -1
	}
	patterns = append(patterns, pattern{"dc", ones, byPosition, true}, pattern{"-dc", negOnes, byPosition, true})
	for u := range blockSize {
		for v := range blockSize {
			if u == 0 && v == 0 {
				continue
			}
			var signs, neg [64]int32
			weight := make([]int64, 64)
			for i := range signs {
				p := int64(m[u][i/blockSize]) * int64(m[v][i%blockSize])
				signs[i], weight[i] = 1, max(p, -p)
				if p < 0 {
					signs[i] = -1
				}
				neg[i] = -signs[i]
			}
			order := append([]int(nil), byPosition...)
			sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
			patterns = append(patterns,
				pattern{"basis", signs, order, true}, pattern{"-basis", neg, order, true},
				pattern{"basis spread", signs, order, false}, pattern{"-basis spread", neg, order, false})
		}
	}
	failures := 0
	for qstep := 1; qstep <= 128; qstep++ {
		dcDiv, acDiv := quantDivisors(qstep)
		sad := deadZoneSAD(qstep) - 1 // the largest SAD the exit takes
		if sad >= dcDiv {
			t.Errorf("q%d: the exit takes SAD %d, which can make a DC of %d ≥ its divisor %d", qstep, sad, sad, dcDiv)
		}
		for u := range blockSize {
			for v := range blockSize {
				if u == 0 && v == 0 {
					continue
				}
				// |AC|·2^26 ≤ w_u·w_v·SAD + 8·½·w_u·2^11 + ½·2^26.
				if bound := w[u]*w[v]*int64(sad) + w[u]<<13 + 1<<25; bound >= int64(acDiv)<<26 {
					t.Errorf("q%d: the exit takes SAD %d, where AC (%d,%d) can reach %.3f ≥ its divisor %d",
						qstep, sad, u, v, float64(bound)/(1<<26), acDiv)
				}
			}
		}
		coder := newBlockCoder(qstep)
		check := func(name string, r *[64]int32) {
			if failures < 10 && !deadZoneEmpties(&coder, qstep, r) {
				failures++
				t.Errorf("q%d: %s residual of SAD %d keeps a level: %v", qstep, name, sad, *r)
			}
		}
		for _, p := range patterns {
			r := spread(sad, p.order, &p.signs, p.concentrated)
			check(p.name, &r)
		}
		for i := range 64 {
			for _, s := range []int32{1, -1} {
				var r [64]int32
				r[i] = s * min(sad, 255)
				check("impulse", &r)
			}
		}
	}
}

// FuzzDeadZoneExit codes a block against a prediction that differs from it
// by the fuzzed deltas: whenever the search's own SAD says the dead zone
// empties the candidate, the full transform must agree.
func FuzzDeadZoneExit(f *testing.F) {
	block := make([]byte, 64)
	for i := range block {
		block[i] = byte(40 + 3*i)
	}
	small := make([]byte, 64)
	for i := range small {
		small[i] = byte(int8(i%3 - 1))
	}
	f.Add(uint8(3), block, small)             // ±1 on two samples of three, SAD 43: over q4's 16
	f.Add(uint8(10), block, small)            // and under q11's 44
	f.Add(uint8(7), block, []byte{31})        // one impulse just under q8's 32
	f.Add(uint8(63), block, []byte{127, 129}) // two opposite impulses at q64
	f.Add(uint8(0), make([]byte, 64), []byte{3})
	f.Fuzz(func(t *testing.T, q uint8, block, deltas []byte) {
		qstep := 1 + int(q)%128
		cur, pred := newPlane(blockSize, blockSize), newPlane(blockSize, blockSize)
		for i := range 64 {
			var c, d int32
			if i < len(block) {
				c = int32(block[i])
			}
			if i < len(deltas) {
				d = int32(int8(deltas[i]))
			}
			cur.pix[i], pred.pix[i] = uint8(c), clamp255(c+d)
		}
		var packed packedBlock
		packed.load(cur, 0, 0)
		_, _, sad := motionSearch(&packed, pred, 0, 0, 0)
		if sad >= deadZoneSAD(qstep) {
			return
		}
		var r [64]int32
		for i := range r {
			r[i] = int32(cur.pix[i]) - int32(pred.pix[i])
		}
		coder := newBlockCoder(qstep)
		if !deadZoneEmpties(&coder, qstep, &r) {
			t.Fatalf("q%d: the exit fires at SAD %d, but the transform keeps a level of %v", qstep, sad, r)
		}
	})
}
