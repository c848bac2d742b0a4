package core

// RunSolo exposes the solo reference path to the external property tests.
var RunSolo = runSolo
