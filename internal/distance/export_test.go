package distance

// ReferenceSDF exposes referenceSDF to the external test package.
var ReferenceSDF = referenceSDF
