package fleet

import (
	"fmt"
	"testing"
)

// BenchmarkTableCodec times the control plane's table round trip on a
// 1,000-user, 16-machine table: EncodeTable, DecodeTable, and WAL.Save of
// the installed snapshot (fsync and rename included) into a temp dir. The
// row form pays off only when users share rows, so it runs with the five
// distinct rows of five arrival classes and with every row distinct.
func BenchmarkTableCodec(b *testing.B) {
	for _, classes := range []int{5, 1000} {
		tab := churnTable(classes)
		data, err := EncodeTable(tab)
		if err != nil {
			b.Fatal(err)
		}
		active := make([]bool, len(tab.Machines))
		for j := range active {
			active[j] = true
		}
		snap := Snapshot{
			Gen: tab.Epoch, GrantGen: tab.Epoch, Epoch: tab.Epoch, Version: tab.Version, Leader: tab.Leader,
			Active: active, Profile: tab.Profile, AdmitFrac: tab.AdmitFrac,
		}
		b.Run(fmt.Sprintf("rows=%d/encode", classes), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(data)), "table-B")
			for i := 0; i < b.N; i++ {
				if _, err := EncodeTable(tab); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/decode", classes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeTable(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/save", classes), func(b *testing.B) {
			w, _, err := OpenWAL(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Save(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
