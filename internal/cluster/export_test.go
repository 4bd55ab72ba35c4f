package cluster

// GaussianBlobs exposes the test fixture to the external test package.
var GaussianBlobs = gaussianBlobs
