package basepart

import (
	"fmt"
	"testing"

	"prpart/internal/connmat"
	"prpart/internal/design"
	"prpart/internal/resource"
	"prpart/internal/synthetic"
)

func BenchmarkBasePartitionsPaperExample(b *testing.B) {
	m := connmat.New(design.PaperExample())
	for i := 0; i < b.N; i++ {
		if _, err := BasePartitions(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBasePartitionsCaseStudy(b *testing.B) {
	m := connmat.New(design.VideoReceiver())
	for i := 0; i < b.N; i++ {
		if _, err := BasePartitions(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBasePartitionsSynthetic(b *testing.B) {
	mats := make([]*connmat.Matrix, 8)
	for i, d := range synthetic.Generate(5, len(mats)) {
		mats[i] = connmat.New(d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BasePartitions(mats[i%len(mats)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasePartitionsWideConfig tracks the per-configuration 2^k
// cost: one configuration of 14 single-mode modules, all active, is
// 16383 base partitions.
func BenchmarkBasePartitionsWideConfig(b *testing.B) {
	const k = 14
	d := &design.Design{Name: "wide"}
	cfg := design.Configuration{Modes: make([]int, k)}
	for i := 0; i < k; i++ {
		d.Modules = append(d.Modules, &design.Module{
			Name:  fmt.Sprintf("M%d", i),
			Modes: []design.Mode{{Name: "1", Resources: resource.New(10*(i+1), i%3, i%2)}},
		})
		cfg.Modes[i] = 1
	}
	d.Configurations = []design.Configuration{cfg}
	m := connmat.New(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BasePartitions(m); err != nil {
			b.Fatal(err)
		}
	}
}
