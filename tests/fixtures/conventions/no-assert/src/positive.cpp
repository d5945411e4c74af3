#include <cassert>

int
checkedHalf(int n)
{
    assert(n > 0);
    return n / 2;
}
