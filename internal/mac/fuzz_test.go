package mac

import "testing"

// FuzzControlCodecs exercises the control-plane message parsers with
// arbitrary bytes: no panics, and accepted messages re-encode to identical
// bytes (the codecs are canonical).
func FuzzControlCodecs(f *testing.F) {
	f.Add(Report{RX: 1, Seq: 2, Gains: []float64{1e-7, 2e-7}}.Encode())
	f.Add(Ack{RX: 1, Seq: 3}.Encode())
	f.Add(Allocation{Seq: 4, Commands: []TXCommand{{TX: 7, RX: 0, SwingMilliAmps: 900, Leader: true}}}.Encode())
	f.Add(Pilot{Seq: 6, TXs: []int{0, 1, 2, 5}}.Encode())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeReport(data); err == nil {
			re := r.Encode()
			if len(re) != len(data) {
				t.Fatalf("report re-encode length %d vs %d", len(re), len(data))
			}
			for i := range re {
				if re[i] != data[i] {
					t.Fatal("report codec not canonical")
				}
			}
		}
		if a, err := DecodeAck(data); err == nil {
			if got := a.Encode(); string(got) != string(data) {
				t.Fatal("ack codec not canonical")
			}
		}
		if p, err := DecodePilot(data); err == nil {
			if got := p.Encode(); string(got) != string(data) {
				t.Fatal("pilot codec not canonical")
			}
		}
		if al, err := DecodeAllocation(data); err == nil {
			re := al.Encode()
			if len(re) != len(data) {
				t.Fatalf("allocation re-encode length %d vs %d", len(re), len(data))
			}
			// Flag bytes other than 0/1 decode to false and re-encode to 0,
			// so compare semantically: decode again and compare structs.
			al2, err := DecodeAllocation(re)
			if err != nil {
				t.Fatalf("allocation re-decode: %v", err)
			}
			if al2.Seq != al.Seq || len(al2.Commands) != len(al.Commands) {
				t.Fatal("allocation codec not stable")
			}
			for i := range al.Commands {
				if al.Commands[i] != al2.Commands[i] {
					t.Fatal("allocation command drifted")
				}
			}
		}
	})
}
