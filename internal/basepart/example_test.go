package basepart_test

import (
	"fmt"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/design"
)

// Clustering the paper's worked example yields exactly the 26 base
// partitions of Table I, 8 of them the single-mode starting nodes.
func ExampleBasePartitions() {
	d := design.PaperExample()
	parts, err := basepart.BasePartitions(connmat.New(d))
	if err != nil {
		fmt.Println(err)
		return
	}
	singletons := 0
	for _, bp := range parts {
		if bp.Set.Len() == 1 {
			singletons++
		}
	}
	fmt.Printf("base partitions: %d\n", len(parts))
	fmt.Printf("singletons: %d\n", singletons)
	// Output:
	// base partitions: 26
	// singletons: 8
}
