#include <thread>

void
runInBackground(void (*task)())
{
    std::thread(task).detach();
}
