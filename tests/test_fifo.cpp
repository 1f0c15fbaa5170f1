// Single-thread FIFO order for every queue (optionally filtered by
// argv: wcq wcq-portable scq ncq ccq lscq faa msq lcrq sharded-wcq
// sharded-lcrq).
#include "queue_test_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq::test;
  auto fn = []<typename A>(const char* tag) { test_fifo_order<A>(tag); };
  return for_selected_queues(argc, argv, fn);
}
