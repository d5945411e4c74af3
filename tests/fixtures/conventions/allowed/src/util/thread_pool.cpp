#include <thread>
#include <vector>

// The pool is the one place that owns threads.
void
startWorkers(std::vector<std::thread>& workers, void (*loop)())
{
    workers.emplace_back(loop);
}
