package sim

import "testing"

// FuzzEventQueueOrder drives the lane queue and the binary-heap oracle
// in lockstep over a fuzzer-chosen stream of (op, delay) records and
// fails on the first divergence in (at, seq) pop order — the property
// the whole queue rests on, explored beyond the fixed seeds of
// TestLaneQueueMatchesHeapOrder.
//
// Input encoding: consecutive 3-byte records; bytes 1-2 are a
// big-endian 16-bit raw value. Byte 0 selects the op:
//
//   - odd: pop, when non-empty;
//   - even with bit 6 set: push with hot delay raw % len(hotDelays), so
//     lanes fill, drain, refill and compact;
//   - other even: push with a delay of scale (op>>1)%5: zero-delay ties,
//     raw ns, raw µs, raw ms, or the MaxTime saturation region.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{
		0x02, 0x00, 0x07, // push +7
		0x02, 0x00, 0x07, // push tie
		0x01, 0x00, 0x00, // pop
		0x06, 0x03, 0xe8, // push +1000µs
		0x08, 0x00, 0x10, // push near-MaxTime
		0x01, 0x00, 0x00, // pop
	})
	f.Add([]byte{
		0x04, 0xff, 0xff, // push far
		0x00, 0x00, 0x00, // push tie at now
		0x00, 0x00, 0x00,
		0x01, 0x00, 0x00,
		0x01, 0x00, 0x00,
		0x01, 0x00, 0x00,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &lockstep{t: t}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i]
			raw := Time(uint64(data[i+1])<<8 | uint64(data[i+2]))
			switch {
			case op&1 == 1:
				s.pop()
			case op&0x40 != 0:
				s.push(hotDelays[int(raw)%len(hotDelays)])
			default:
				var d Time
				switch (op >> 1) % 5 {
				case 1:
					d = raw
				case 2:
					d = raw * Microsecond
				case 3:
					d = raw * Millisecond
				case 4:
					d = MaxTime - s.now - raw // saturation region
				}
				s.push(d)
			}
		}
		s.drain()
	})
}
