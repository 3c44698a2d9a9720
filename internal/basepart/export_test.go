package basepart

// EdgeInsertion exposes the edge-insertion oracle to the external test
// package, which can import cover (cover imports basepart).
var EdgeInsertion = edgeInsertion
