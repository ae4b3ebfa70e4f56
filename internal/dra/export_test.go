package dra

// AssertSameNet lets the external test package compare netted signed
// deltas with the in-package helper.
var AssertSameNet = assertSameNet
