package core

// BuildBlanket exposes the blanket-tree fixture of the package's own
// tests to the external test package, whose allocation gates import
// testutil (which imports the facade, and through it this package).
var BuildBlanket = buildBlanket
