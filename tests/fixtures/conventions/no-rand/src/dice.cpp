#include <cstdlib>

int
rollDie()
{
    return std::rand() % 6 + 1;
}
