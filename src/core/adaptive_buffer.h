#pragma once

// Old home of CollectBufferStats, still included by perfbench/sqlbench.cc.
#include "core/buffer_operator.h"
