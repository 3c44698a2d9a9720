package basepart

import (
	"testing"

	"prpart/internal/connmat"
	"prpart/internal/design"
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
