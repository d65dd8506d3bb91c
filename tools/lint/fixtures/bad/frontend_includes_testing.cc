// lint-path: src/frontend/harness_leak.cc
// The server library must not reach into test support: testing sits on
// top of frontend, and nothing includes testing.

#include "frontend/session.h"
#include "testing/differential.h"  // expect: layering
