package check

import "testing"

// BenchmarkCrashRecoverIncremental is one crash-and-recover call in
// the shape of the o1perf check-recover workload: one seed, 600 ops on
// 2 CPUs, invariant sweeps every 1024 ops, a base at a quarter of the
// crash point, two deltas between, and a torn journal tail. Each call
// builds fifteen worlds, three per configuration, so its allocs/op is
// the host garbage of building and dropping them.
func BenchmarkCrashRecoverIncremental(b *testing.B) {
	const ops, crashAt = 600, 400
	baseAt := crashAt / 4
	span := crashAt - baseAt
	deltaAts := []int{baseAt + span/3, baseAt + 2*span/3}
	opts := Options{Seed: 1, Ops: ops, CPUs: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, f, err := CrashRecoverIncremental(opts, baseAt, deltaAts, crashAt, true)
		if err != nil {
			b.Fatal(err)
		}
		if f != nil {
			b.Fatal(f)
		}
	}
}
